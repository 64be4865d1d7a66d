package anonymize

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/catalog"
	"repro/internal/logging"
)

func TestHashIPStableAndKeyed(t *testing.T) {
	a := NewIPHasher([]byte("campaign-secret"))
	b := NewIPHasher([]byte("campaign-secret"))
	c := NewIPHasher([]byte("other-secret"))
	ip := netip.MustParseAddr("192.0.2.7")
	if a.HashIP(ip) != b.HashIP(ip) {
		t.Error("same key must hash identically (step 2 depends on it)")
	}
	if a.HashIP(ip) == c.HashIP(ip) {
		t.Error("different keys must hash differently")
	}
	if a.HashIP(ip) == a.HashIP(netip.MustParseAddr("192.0.2.8")) {
		t.Error("different IPs must hash differently")
	}
	if len(a.HashIP(ip)) != 16 {
		t.Errorf("hash length %d", len(a.HashIP(ip)))
	}
}

func TestHashIPDoesNotRevealAddress(t *testing.T) {
	h := NewIPHasher([]byte("s"))
	ip := netip.MustParseAddr("203.0.113.99")
	out := h.HashIP(ip)
	if strings.Contains(out, "203") && strings.Contains(out, "113") {
		// Extremely unlikely by chance; mostly a tripwire for accidental
		// plain-text implementations.
		t.Errorf("hash %q suspiciously contains address fragments", out)
	}
	if _, err := netip.ParseAddr(out); err == nil {
		t.Error("hash parses as an IP address")
	}
}

// TestHashIPMatchesFreshHMAC: the reused, reset HMAC gives exactly what
// a freshly keyed one gives, on IPv4 and IPv6, call after call.
func TestHashIPMatchesFreshHMAC(t *testing.T) {
	secret := []byte("campaign-secret")
	h := NewIPHasher(secret)
	secret[0] = 'X' // the hasher keeps its own copy of the key
	for _, s := range []string{"192.0.2.7", "10.0.0.1", "2001:db8::1", "::ffff:192.0.2.7", "0.0.0.0"} {
		addr := netip.MustParseAddr(s)
		mac := hmac.New(sha256.New, []byte("campaign-secret"))
		b := addr.As16()
		mac.Write(b[:])
		want := hex.EncodeToString(mac.Sum(nil))[:16]
		for i := 0; i < 3; i++ {
			if got := h.HashIP(addr); got != want {
				t.Fatalf("HashIP(%s) call %d = %s, want %s", s, i, got, want)
			}
		}
	}
}

// TestHashIPConcurrent: honeypots of one campaign may share a hasher;
// concurrent calls must each get their own address's hash.
func TestHashIPConcurrent(t *testing.T) {
	h := NewIPHasher([]byte("shared"))
	ref := NewIPHasher([]byte("shared"))
	want := make([]string, 64)
	for i := range want {
		want[i] = ref.HashIP(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				if got := h.HashIP(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})); got != want[i] {
					t.Errorf("address %d hashed to %s, want %s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRenumbererFirstAppearanceOrder(t *testing.T) {
	r := NewRenumberer()
	if r.Number("aaa") != 0 || r.Number("bbb") != 1 || r.Number("aaa") != 0 || r.Number("ccc") != 2 {
		t.Error("numbering must follow first appearance")
	}
	if r.Count() != 3 {
		t.Errorf("Count = %d", r.Count())
	}
}

func TestRenumberRecordsCoherentAcrossHoneypots(t *testing.T) {
	h := NewIPHasher([]byte("secret"))
	ipA := h.HashIP(netip.MustParseAddr("10.1.1.1"))
	ipB := h.HashIP(netip.MustParseAddr("10.2.2.2"))
	log1 := []logging.Record{{PeerIP: ipA, Honeypot: "hp-0"}, {PeerIP: ipB, Honeypot: "hp-0"}}
	log2 := []logging.Record{{PeerIP: ipB, Honeypot: "hp-1"}, {PeerIP: ipA, Honeypot: "hp-1"}}

	r := NewRenumberer()
	merged := append(append([]logging.Record{}, log1...), log2...)
	n := r.RenumberRecords(merged)
	if n != 2 {
		t.Fatalf("distinct peers = %d", n)
	}
	// Same original IP must map to the same number in both honeypot logs.
	if merged[0].PeerIP != merged[3].PeerIP {
		t.Errorf("ipA numbered %s and %s", merged[0].PeerIP, merged[3].PeerIP)
	}
	if merged[1].PeerIP != merged[2].PeerIP {
		t.Errorf("ipB numbered %s and %s", merged[1].PeerIP, merged[2].PeerIP)
	}
	if merged[0].PeerIP != "0" {
		t.Errorf("first peer numbered %s", merged[0].PeerIP)
	}
}

func TestRenumberSkipsEmpty(t *testing.T) {
	r := NewRenumberer()
	recs := []logging.Record{{PeerIP: ""}}
	if n := r.RenumberRecords(recs); n != 0 {
		t.Errorf("count = %d", n)
	}
	if recs[0].PeerIP != "" {
		t.Error("empty PeerIP must stay empty")
	}
}

// ---------------------------------------------------------------------------
// Reference filename anonymizer: the rune-copying splitter the word
// scanner replaced, kept as an oracle. The scanner must reproduce it
// exactly on every input, invalid UTF-8 included.

// splitWords cuts a file name into alternating word and separator runs,
// starting with a (possibly empty) word.
func splitWords(name string) []string {
	var parts []string
	cur := strings.Builder{}
	isWord := true
	for _, r := range name {
		w := isWordRune(r)
		if w != isWord {
			parts = append(parts, cur.String())
			cur.Reset()
			isWord = w
		}
		cur.WriteRune(r)
	}
	parts = append(parts, cur.String())
	return parts
}

func isWordRune(r rune) bool {
	return r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r >= 0x80
}

type refNameAnonymizer struct {
	threshold int
	freq      map[string]int
	mapping   map[string]string
	next      int
}

func newRefNameAnonymizer(threshold int) *refNameAnonymizer {
	return &refNameAnonymizer{
		threshold: threshold,
		freq:      make(map[string]int),
		mapping:   make(map[string]string),
	}
}

func (a *refNameAnonymizer) Observe(name string) {
	for i, p := range splitWords(name) {
		if i%2 == 0 && p != "" { // word positions
			a.freq[strings.ToLower(p)]++
		}
	}
}

func (a *refNameAnonymizer) Anonymize(name string) string {
	parts := splitWords(name)
	var b strings.Builder
	for i, p := range parts {
		if i%2 == 1 || p == "" {
			b.WriteString(p)
			continue
		}
		key := strings.ToLower(p)
		if a.freq[key] >= a.threshold {
			b.WriteString(p)
			continue
		}
		repl, ok := a.mapping[key]
		if !ok {
			repl = strconv.Itoa(a.next)
			a.next++
			a.mapping[key] = repl
		}
		b.WriteString(repl)
	}
	return b.String()
}

func TestSplitWordsAlternation(t *testing.T) {
	parts := splitWords("some.movie (2008)-final.avi")
	rebuilt := strings.Join(parts, "")
	if rebuilt != "some.movie (2008)-final.avi" {
		t.Errorf("split/join not lossless: %q", rebuilt)
	}
	for i, p := range parts {
		if p == "" {
			continue
		}
		wantWord := i%2 == 0
		if isWordRune(rune(p[0])) != wantWord {
			t.Errorf("part %d %q in wrong position", i, p)
		}
	}
}

// checkMatchesReference observes names, then anonymizes them, on both
// the scanner and the reference, and requires identical outputs, counts
// and tokens.
func checkMatchesReference(t *testing.T, names []string, threshold int) {
	t.Helper()
	a, ref := NewNameAnonymizer(threshold), newRefNameAnonymizer(threshold)
	for _, n := range names {
		a.Observe(n)
		ref.Observe(n)
	}
	for _, n := range names {
		if got, want := a.Anonymize(n), ref.Anonymize(n); got != want {
			t.Fatalf("Anonymize(%q) = %q, reference %q", n, got, want)
		}
	}
	if got, want := a.ReplacedWords(), len(ref.mapping); got != want {
		t.Fatalf("ReplacedWords = %d, reference %d", got, want)
	}
	for key, tok := range ref.mapping {
		if w := a.words[key]; w == nil || w.token != tok {
			t.Fatalf("word %q: token %+v, reference %q", key, w, tok)
		}
	}
	for key, n := range ref.freq {
		if w := a.words[key]; w == nil || w.count != n {
			t.Fatalf("word %q: count %+v, reference %d", key, w, n)
		}
	}
}

// catalogNames draws n names from a small generated catalog by
// popularity, as a campaign's records would carry them.
func catalogNames(n int) []string {
	c := catalog.Generate(catalog.Config{NumFiles: 2_000, Vocabulary: 500, Seed: 1})
	rng := rand.New(rand.NewSource(1))
	names := make([]string, n)
	for i := range names {
		names[i] = c.Sample(rng).Name
	}
	return names
}

func TestNameAnonymizerMatchesReference(t *testing.T) {
	names := append(catalogNames(2_000),
		"", "...", " - ", "Some.Movie (2008)-FINAL.avi", "ÉTÉ.été.Été",
		"İstanbul.ıstanbul", "ß.SS.ss", "\xff\xfe.bad\x80word.ok",
		"mixed\xc3.\xc3\xa9t\xc3\xa9", "\xed\xa0\x80surrogate", "\uFFFD.\xef\xbf\xbd")
	for _, threshold := range []int{-1, 0, 1, 2, 3, 50} {
		checkMatchesReference(t, names, threshold)
	}
}

// FuzzNameAnonymizerMatchesReference holds the word scanner to the
// reference splitter on arbitrary bytes: the corpus is cut into names at
// '\n', and every output, the replaced-word count and every token must
// agree.
func FuzzNameAnonymizerMatchesReference(f *testing.F) {
	f.Add(strings.Join(catalogNames(20), "\n"), uint8(2))
	f.Add("Some.Movie (2008)-FINAL.avi\nsome.movie.avi\n\n...", uint8(2))
	f.Add("ÉTÉ.été\n\xff\xfe.bad\x80word\nİ.ı", uint8(1))
	f.Add("a\x00b\tc\nA-B-C\n\xc3", uint8(3))
	f.Fuzz(func(t *testing.T, corpus string, threshold uint8) {
		checkMatchesReference(t, strings.Split(corpus, "\n"), int(threshold%8))
	})
}

func TestNameAnonymizerThreshold(t *testing.T) {
	a := NewNameAnonymizer(2)
	names := []string{
		"common.rareone.avi",
		"common.raretwo.avi",
		"common.common.mp3",
	}
	for _, n := range names {
		a.Observe(n)
	}
	// "common" appears 4 times, "avi" twice, "rareone"/"raretwo"/"mp3" once.
	got := a.Anonymize("common.rareone.avi")
	if !strings.HasPrefix(got, "common.") {
		t.Errorf("frequent word replaced: %q", got)
	}
	if strings.Contains(got, "rareone") {
		t.Errorf("rare word kept: %q", got)
	}
	if !strings.HasSuffix(got, ".avi") {
		t.Errorf("avi (freq 2) should be kept: %q", got)
	}
	// Coherence: the same rare word maps to the same token.
	if a.Anonymize("common.rareone.avi") != got {
		t.Error("anonymization not deterministic")
	}
	// Distinct rare words map to distinct tokens.
	other := a.Anonymize("common.raretwo.avi")
	if other == got {
		t.Error("distinct rare words collided")
	}
	if a.ReplacedWords() != 2 {
		t.Errorf("ReplacedWords = %d", a.ReplacedWords())
	}
}

func TestNameAnonymizerCaseInsensitive(t *testing.T) {
	a := NewNameAnonymizer(2)
	a.Observe("Word.x")
	a.Observe("word.y")
	if got := a.Anonymize("Word.x"); !strings.HasPrefix(got, "Word") {
		t.Errorf("case-insensitive counting failed: %q", got)
	}
}

func TestAnonymizeRecordNames(t *testing.T) {
	recs := []logging.Record{
		{FileName: "popular.secret1.avi"},
		{FileName: "popular.secret2.avi"},
		{Files: []logging.SharedFile{{Name: "popular.secret3.avi"}}},
	}
	AnonymizeRecordNames(recs, 3)
	for i, want := range []string{"secret1", "secret2"} {
		if strings.Contains(recs[i].FileName, want) {
			t.Errorf("record %d still contains %q: %q", i, want, recs[i].FileName)
		}
		if !strings.Contains(recs[i].FileName, "popular") {
			t.Errorf("record %d lost frequent word: %q", i, recs[i].FileName)
		}
	}
	if strings.Contains(recs[2].Files[0].Name, "secret3") {
		t.Errorf("shared list name not anonymized: %q", recs[2].Files[0].Name)
	}
}

func TestAuditCatchesRawIPs(t *testing.T) {
	bad := []logging.Record{{PeerIP: "192.0.2.55"}}
	if err := Audit(bad); err == nil {
		t.Error("raw IPv4 must fail audit")
	}
	bad6 := []logging.Record{{PeerIP: "2001:db8::1"}}
	if err := Audit(bad6); err == nil {
		t.Error("raw IPv6 must fail audit")
	}
	weird := []logging.Record{{PeerIP: "not-an-ip-nor-hash"}}
	if err := Audit(weird); err == nil {
		t.Error("unclassifiable PeerIP must fail audit")
	}
}

func TestAuditAcceptsPipelineOutput(t *testing.T) {
	h := NewIPHasher([]byte("k"))
	recs := []logging.Record{
		{PeerIP: h.HashIP(netip.MustParseAddr("10.0.0.1"))},
		{PeerIP: ""},
	}
	if err := Audit(recs); err != nil {
		t.Errorf("hashed records must pass: %v", err)
	}
	NewRenumberer().RenumberRecords(recs)
	if err := Audit(recs); err != nil {
		t.Errorf("renumbered records must pass: %v", err)
	}
}

// Property: the full two-step pipeline is injective per campaign — two
// addresses get the same final number iff they are the same address.
func TestQuickPipelineInjective(t *testing.T) {
	h := NewIPHasher([]byte("prop"))
	r := NewRenumberer()
	seen := map[string]string{} // number -> address
	f := func(a, b, c, d byte) bool {
		ip := netip.AddrFrom4([4]byte{a, b, c, d})
		n := strconv.Itoa(r.Number(h.HashIP(ip)))
		if prev, ok := seen[n]; ok {
			return prev == ip.String()
		}
		seen[n] = ip.String()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Property: name anonymization never leaks a below-threshold word.
func TestQuickNoRareWordSurvives(t *testing.T) {
	f := func(words []string) bool {
		a := NewNameAnonymizer(2)
		var names []string
		for i, w := range words {
			name := fmt.Sprintf("unique%dzz%s.ext", i, sanitize(w))
			names = append(names, name)
			a.Observe(name)
		}
		for i, n := range names {
			got := a.Anonymize(n)
			if strings.Contains(got, fmt.Sprintf("unique%dzz", i)) {
				return false // each uniqueNzz... word appears once, must go
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		if isWordRune(r) && r < 0x80 {
			b.WriteRune(r)
		}
	}
	return b.String()
}

func BenchmarkHashIP(b *testing.B) {
	h := NewIPHasher([]byte("campaign"))
	ip := netip.MustParseAddr("198.51.100.23")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.HashIP(ip)
	}
}

// BenchmarkNameAnonymizer runs both passes of the filename stage, observe
// then anonymize, over a popularity-drawn catalog corpus.
func BenchmarkNameAnonymizer(b *testing.B) {
	names := catalogNames(20_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewNameAnonymizer(2)
		for _, n := range names {
			a.Observe(n)
		}
		for _, n := range names {
			a.Anonymize(n)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(names)), "ns/name")
}

func BenchmarkRenumber100k(b *testing.B) {
	recs := make([]logging.Record, 100_000)
	h := NewIPHasher([]byte("x"))
	for i := range recs {
		ip := netip.AddrFrom4([4]byte{byte(i >> 16), byte(i >> 8), byte(i), 1})
		recs[i].PeerIP = h.HashIP(ip)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := make([]logging.Record, len(recs))
		copy(cp, recs)
		NewRenumberer().RenumberRecords(cp)
	}
}

// ---------------------------------------------------------------------------
// Streaming stages.

// drainAll pulls an iterator dry, returning records and the terminal
// error (nil for a clean io.EOF).
func drainAll(t *testing.T, it logging.Iterator) ([]logging.Record, error) {
	t.Helper()
	var out []logging.Record
	for {
		r, err := it.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
}

// TestStagesMatchSlicePipeline pins the streaming pipeline (renumber →
// observe/anonymize → audit) bit-identical to the slice-based one on
// the same input.
func TestStagesMatchSlicePipeline(t *testing.T) {
	h := NewIPHasher([]byte("stage-secret"))
	var recs []logging.Record
	base := netip.MustParseAddr("10.0.0.0")
	names := []string{
		"popular.word.rareone.avi",
		"popular.word.raretwo.avi",
		"popular.word.mp3",
		"", // records without a file
	}
	addr := base
	for i := 0; i < 40; i++ {
		addr = addr.Next()
		if i%3 == 0 {
			addr = base // repeats: coherent renumbering matters
		}
		r := logging.Record{
			Honeypot: fmt.Sprintf("hp-%d", i%3),
			PeerIP:   h.HashIP(addr),
			FileName: names[i%len(names)],
		}
		if i%7 == 0 {
			r.Files = []logging.SharedFile{{Name: "popular.shared.rarethree.iso"}}
		}
		recs = append(recs, r)
	}

	// Slice path.
	want := make([]logging.Record, len(recs))
	copy(want, recs)
	for i := range want { // deep-copy shared lists: the slice path mutates them
		if len(want[i].Files) > 0 {
			want[i].Files = append([]logging.SharedFile(nil), recs[i].Files...)
		}
	}
	renA := NewRenumberer()
	distinctWant := renA.RenumberRecords(want)
	naA := AnonymizeRecordNames(want, 2)
	if err := Audit(want); err != nil {
		t.Fatal(err)
	}

	// Streaming path over a re-iterable source.
	src := logging.NewMergeSource(recs)
	renB := NewRenumberer()
	naB := NewNameAnonymizer(2)
	pass1, _ := src.Iter()
	if err := naB.ObserveIter(pass1); err != nil {
		t.Fatal(err)
	}
	pass2, _ := src.Iter()
	got, err := drainAll(t, AuditIter(naB.AnonymizeIter(renB.RenumberIter(pass2))))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Fatal("streamed records differ from slice pipeline")
	}
	if renB.Count() != distinctWant {
		t.Fatalf("distinct peers: streamed %d, slice %d", renB.Count(), distinctWant)
	}
	if naB.ReplacedWords() != naA.ReplacedWords() {
		t.Fatalf("replaced words: streamed %d, slice %d", naB.ReplacedWords(), naA.ReplacedWords())
	}
	// The streaming stage must not have touched the source records.
	for i := range recs {
		if recs[i].PeerIP == want[i].PeerIP && want[i].PeerIP != "" {
			t.Fatalf("record %d source PeerIP was rewritten in place", i)
		}
		for j := range recs[i].Files {
			if recs[i].Files[j].Name != "popular.shared.rarethree.iso" {
				t.Fatalf("record %d source shared list mutated: %q", i, recs[i].Files[j].Name)
			}
		}
	}
}

// TestAuditErrorNamesOffendingRecord: audit failures identify the
// record by stream index, honeypot, field and value.
func TestAuditErrorNamesOffendingRecord(t *testing.T) {
	recs := []logging.Record{
		{Honeypot: "hp-0", PeerIP: "42"},
		{Honeypot: "hp-7", PeerIP: "192.0.2.55"},
	}
	err := Audit(recs)
	if err == nil {
		t.Fatal("raw address passed the audit")
	}
	var ae *AuditError
	if !errors.As(err, &ae) {
		t.Fatalf("audit error is %T, want *AuditError", err)
	}
	if ae.Index != 1 || ae.Honeypot != "hp-7" || ae.Field != "peer_ip" || ae.Value != "192.0.2.55" {
		t.Fatalf("AuditError = %+v", ae)
	}
	for _, want := range []string{"record 1", "hp-7", "peer_ip", "192.0.2.55"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}

	// The streaming verifier reports the same identification.
	_, serr := drainAll(t, AuditIter(logging.NewSliceIter(recs)))
	var sae *AuditError
	if !errors.As(serr, &sae) {
		t.Fatalf("stream audit error is %T, want *AuditError", serr)
	}
	if *sae != *ae {
		t.Fatalf("stream AuditError %+v differs from slice %+v", sae, ae)
	}
}

// TestAuditClassification: the byte-loop classifiers agree with the
// decoders they replaced, and every verdict names the same reason.
func TestAuditClassification(t *testing.T) {
	cases := []struct {
		ip     string
		reason string // "" = passes
	}{
		{"0123456789abcdef", ""},
		{"0123456789ABCDEF", ""},
		{"0123456789abcdeg", "is neither hashed nor renumbered"},
		{"0123456789abcde", "is neither hashed nor renumbered"},
		{"42", ""},
		{"+42", ""},
		{"-7", ""},
		{"99999999999999999999", "is neither hashed nor renumbered"},
		{"1234567890123456", ""},
		{"192.0.2.55", "leaks a raw address"},
		{"2001:db8::1", "leaks a raw address"},
		{"::", "leaks a raw address"},
		{"fe80::1%eth0", "leaks a raw address"},
		{"not-an-ip-nor-hash", "is neither hashed nor renumbered"},
		{"1.2.3", "is neither hashed nor renumbered"},
	}
	for _, c := range cases {
		_, hexErr := hex.DecodeString(c.ip)
		if got, want := looksHashed(c.ip), len(c.ip) == 16 && hexErr == nil; got != want {
			t.Errorf("looksHashed(%q) = %v, want %v", c.ip, got, want)
		}
		recs := []logging.Record{{Honeypot: "hp-1", PeerIP: "3"}, {Honeypot: "hp-2", PeerIP: c.ip}}
		err := Audit(recs)
		if c.reason == "" {
			if err != nil {
				t.Errorf("%q: unexpected %v", c.ip, err)
			}
			continue
		}
		want := AuditError{Index: 1, Honeypot: "hp-2", Field: "peer_ip", Value: c.ip, Reason: c.reason}
		var ae *AuditError
		if !errors.As(err, &ae) || *ae != want {
			t.Errorf("%q: got %v, want %+v", c.ip, err, want)
		}
	}
}

// TestAuditIterPassThrough: clean records flow unchanged.
func TestAuditIterPassThrough(t *testing.T) {
	recs := []logging.Record{{PeerIP: "0"}, {PeerIP: ""}, {PeerIP: "12"}}
	got, err := drainAll(t, AuditIter(logging.NewSliceIter(recs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("audit stage altered records")
	}
}
