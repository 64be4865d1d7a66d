// Package anonymize implements the paper's privacy pipeline (its §III-C)
// as composable streaming stages over logging.Iterator, so the published
// dataset of an arbitrarily large campaign is produced without ever
// holding the merged log in memory:
//
//  1. Each honeypot encodes peer IP addresses with a keyed one-way hash
//     (IPHasher) before anything is written to disk or sent to the
//     manager. The key is shared campaign-wide so the same address hashes
//     identically at every honeypot, which step 2 requires.
//  2. The manager replaces each hash value — coherently across all
//     honeypot logs — by a small integer in order of first appearance
//     (Renumberer.RenumberIter, a stateful single-pass map stage),
//     defeating the 2^32 dictionary attack the paper warns about.
//  3. File names are anonymized by replacing every word that appears less
//     often than a threshold with an integer token (NameAnonymizer), an
//     explicitly two-pass stage: ObserveIter counts corpus-wide word
//     frequencies over one pass of a re-iterable source, AnonymizeIter
//     rewrites names on the second pass. State is O(distinct words).
//  4. AuditIter is a pass-through verifier: records flow unchanged while
//     every PeerIP is checked for address leaks; a failure aborts the
//     stream with an AuditError naming the offending record.
//
// The slice-based entry points (RenumberRecords, AnonymizeRecordNames,
// Audit) remain for in-memory datasets and tests; they run the same
// stages over a slice iterator.
package anonymize

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/logging"
)

// IPHasher is the step-1 anonymizer held by each honeypot. It is safe
// for concurrent use.
type IPHasher struct {
	mu   sync.Mutex
	mac  hash.Hash // keyed once; Reset before each use
	addr [16]byte  // scratch, so nothing escapes through the interface
	sum  [sha256.Size]byte
}

// NewIPHasher builds a hasher from the campaign secret. Every honeypot of
// a campaign must receive the same secret. The secret is copied: later
// changes to it do not reach the hasher.
func NewIPHasher(secret []byte) *IPHasher {
	return &IPHasher{mac: hmac.New(sha256.New, secret)}
}

// HashIP returns the anonymized form of addr: the first 16 hex characters
// of HMAC-SHA256(key, addr). One-way, keyed, and stable campaign-wide.
func (h *IPHasher) HashIP(addr netip.Addr) string {
	var out [16]byte
	h.mu.Lock()
	h.addr = addr.As16()
	h.mac.Reset()
	h.mac.Write(h.addr[:])
	hex.Encode(out[:], h.mac.Sum(h.sum[:0])[:len(out)/2])
	h.mu.Unlock()
	return string(out[:])
}

// Renumberer is the manager's step-2 pass: hash values become integers in
// first-appearance order, coherently across all logs fed to it.
type Renumberer struct {
	m map[string]peerNumber
}

// peerNumber is one peer's step-2 integer and its decimal form, kept
// together so a record is rewritten without formatting the number again.
type peerNumber struct {
	n int
	s string
}

// NewRenumberer returns an empty renumberer.
func NewRenumberer() *Renumberer {
	return &Renumberer{m: make(map[string]peerNumber)}
}

// Number returns the integer assigned to hash, allocating the next one on
// first sight.
func (r *Renumberer) Number(hash string) int { return r.number(hash).n }

func (r *Renumberer) number(hash string) peerNumber {
	if p, ok := r.m[hash]; ok {
		return p
	}
	p := peerNumber{n: len(r.m), s: strconv.Itoa(len(r.m))}
	r.m[hash] = p
	return p
}

// Count returns how many distinct hashes were seen.
func (r *Renumberer) Count() int { return len(r.m) }

// RenumberIter is the streaming step-2 stage: records flow through with
// PeerIP rewritten from step-1 hashes to first-appearance integers
// (decimal strings). The renumberer's state — one map entry per distinct
// peer, never per record — accumulates across everything streamed, so one
// Renumberer keeps the numbering coherent over all of a campaign's logs.
// Count is final once the stream is drained.
func (r *Renumberer) RenumberIter(src logging.Iterator) logging.Iterator {
	return logging.Map(src, func(rec *logging.Record) error {
		if rec.PeerIP != "" {
			rec.PeerIP = r.number(rec.PeerIP).s
		}
		return nil
	})
}

// RenumberRecords rewrites PeerIP in place from step-1 hashes to step-2
// integers (decimal strings), and returns the number of distinct peers.
// Records must already carry hashed (never raw) addresses.
func (r *Renumberer) RenumberRecords(recs []logging.Record) int {
	for i := range recs {
		if recs[i].PeerIP == "" {
			continue
		}
		recs[i].PeerIP = r.number(recs[i].PeerIP).s
	}
	return r.Count()
}

// ---------------------------------------------------------------------------
// Filename anonymization.

// NameAnonymizer replaces rare words in file names with integer tokens.
// It is a two-pass stage: frequencies must be corpus-wide, so every name
// is observed (pass 1) before any name is rewritten (pass 2).
//
// A word is a maximal run of ASCII letters and digits and of non-ASCII
// runes; words are counted case-insensitively. Both passes scan a name's
// bytes once and look each word up by its byte range: observing a name
// allocates only for a word that needs lower-casing or is new, and a
// name with nothing to replace is returned without allocating.
type NameAnonymizer struct {
	threshold int
	words     map[string]*word // lower-cased word → its state
	next      int              // the next replacement token
}

// word is one distinct lower-cased word: its corpus count from pass 1
// and, once pass 2 has replaced it, its integer token.
type word struct {
	count int
	token string
}

// NewNameAnonymizer builds an anonymizer replacing words occurring fewer
// than threshold times.
func NewNameAnonymizer(threshold int) *NameAnonymizer {
	return &NameAnonymizer{threshold: threshold, words: make(map[string]*word)}
}

// isWordByte reports whether c belongs to a word. Every byte of a
// multi-byte rune, and every invalid byte, is ≥ 0x80, so a word's runes
// and its bytes agree.
func isWordByte(c byte) bool {
	return c >= 0x80 || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// nextWord returns the byte range [start, end) of the first word of name
// at or after byte i; start == end means there is none.
func nextWord(name string, i int) (start, end int) {
	for i < len(name) && !isWordByte(name[i]) {
		i++
	}
	start = i
	for i < len(name) && isWordByte(name[i]) {
		i++
	}
	return start, i
}

// validName returns name with each invalid UTF-8 byte replaced by
// U+FFFD, as a rune-by-rune copy gives it, so that an invalid byte never
// reaches a key or an output name, whether its word is kept or not.
func validName(name string) string {
	if utf8.ValidString(name) {
		return name
	}
	var b strings.Builder
	for _, r := range name {
		b.WriteRune(r)
	}
	return b.String()
}

// Observe counts the words of one file name. All names must be observed
// before any call to Anonymize so frequencies are corpus-wide.
func (a *NameAnonymizer) Observe(name string) {
	name = validName(name)
	for start, end := nextWord(name, 0); start < end; start, end = nextWord(name, end) {
		key := strings.ToLower(name[start:end]) // no copy if already lower-case ASCII
		if w := a.words[key]; w != nil {
			w.count++
		} else {
			// Clone so the map never pins the record the name came from.
			a.words[strings.Clone(key)] = &word{count: 1}
		}
	}
}

// ObserveIter is pass 1 of the streaming stage: it drains src, counting
// the word frequencies of every file name (FileName fields and
// shared-list entries). Memory is one counter per distinct word.
func (a *NameAnonymizer) ObserveIter(src logging.Iterator) error {
	return logging.Each(src, func(r *logging.Record) error {
		if r.FileName != "" {
			a.Observe(r.FileName)
		}
		for _, f := range r.Files {
			a.Observe(f.Name)
		}
		return nil
	})
}

// Anonymize rewrites a name, replacing below-threshold words coherently:
// the same word always gets the same token, and tokens are numbered in
// order of first replacement. A name with nothing to replace is returned
// as it is.
func (a *NameAnonymizer) Anonymize(name string) string {
	name = validName(name)
	var b strings.Builder
	copied := 0 // name[:copied] is in b
	for start, end := nextWord(name, 0); start < end; start, end = nextWord(name, end) {
		key := strings.ToLower(name[start:end])
		w := a.words[key]
		if w == nil {
			if a.threshold <= 0 {
				continue // an unseen word's count, 0, meets the threshold
			}
			w = &word{}
			a.words[strings.Clone(key)] = w
		} else if w.count >= a.threshold {
			continue
		}
		if w.token == "" {
			w.token = strconv.Itoa(a.next)
			a.next++
		}
		if copied == 0 {
			b.Grow(len(name) + len(w.token))
		}
		b.WriteString(name[copied:start])
		b.WriteString(w.token)
		copied = end
	}
	if copied == 0 {
		return name
	}
	b.WriteString(name[copied:])
	return b.String()
}

// AnonymizeIter is pass 2 of the streaming stage: records flow through
// with every file name rewritten under the frequencies ObserveIter
// gathered. Shared-list slices are cloned before rewriting, so the
// source's records are never mutated — a re-iterable source stays
// pristine for further passes.
func (a *NameAnonymizer) AnonymizeIter(src logging.Iterator) logging.Iterator {
	return logging.Map(src, func(r *logging.Record) error {
		if r.FileName != "" {
			r.FileName = a.Anonymize(r.FileName)
		}
		if len(r.Files) > 0 {
			files := make([]logging.SharedFile, len(r.Files))
			copy(files, r.Files)
			for i := range files {
				files[i].Name = a.Anonymize(files[i].Name)
			}
			r.Files = files
		}
		return nil
	})
}

// ReplacedWords returns how many distinct words were replaced so far.
func (a *NameAnonymizer) ReplacedWords() int { return a.next }

// AnonymizeRecordNames applies filename anonymization to every name in
// the record set (FileName fields and shared-list entries), with corpus
// frequencies computed over the whole set first.
func AnonymizeRecordNames(recs []logging.Record, threshold int) *NameAnonymizer {
	a := NewNameAnonymizer(threshold)
	if err := a.ObserveIter(logging.NewSliceIter(recs)); err != nil {
		panic("anonymize: slice iterator cannot fail: " + err.Error())
	}
	for i := range recs {
		if recs[i].FileName != "" {
			recs[i].FileName = a.Anonymize(recs[i].FileName)
		}
		for j := range recs[i].Files {
			recs[i].Files[j].Name = a.Anonymize(recs[i].Files[j].Name)
		}
	}
	return a
}

// ---------------------------------------------------------------------------
// Audit.

// AuditError reports exactly which record leaked: its position in the
// merged stream, the collecting honeypot, and the offending field and
// value, so an operator can trace the leak to its source instead of
// re-running the pipeline under a debugger.
type AuditError struct {
	// Index is the record's position in the audited stream (0-based).
	Index int
	// Honeypot is the record's collecting honeypot.
	Honeypot string
	// Field names the leaking record field (e.g. "peer_ip").
	Field string
	// Value is the offending field content.
	Value string
	// Reason says what is wrong with it.
	Reason string
}

// Error implements error.
func (e *AuditError) Error() string {
	return fmt.Sprintf("anonymize: record %d (honeypot %q) field %s = %q %s",
		e.Index, e.Honeypot, e.Field, e.Value, e.Reason)
}

// auditRecord checks one record for address leaks. A hash or a number
// never parses as an address (it has no '.' or ':'), so only values that
// are neither are parsed.
func auditRecord(i int, r *logging.Record) *AuditError {
	ip := r.PeerIP
	if ip == "" || looksHashed(ip) || looksNumbered(ip) {
		return nil
	}
	if _, err := netip.ParseAddr(ip); err == nil {
		return &AuditError{Index: i, Honeypot: r.Honeypot, Field: "peer_ip", Value: ip,
			Reason: "leaks a raw address"}
	}
	return &AuditError{Index: i, Honeypot: r.Honeypot, Field: "peer_ip", Value: ip,
		Reason: "is neither hashed nor renumbered"}
}

// AuditIter is the pass-through verifier stage: records flow through
// unchanged while every one is checked for raw-address leaks; the first
// leak aborts the stream with an *AuditError.
func AuditIter(src logging.Iterator) logging.Iterator {
	i := 0
	return logging.Map(src, func(r *logging.Record) error {
		if err := auditRecord(i, r); err != nil {
			return err
		}
		i++
		return nil
	})
}

// Audit verifies no raw IP address survived anonymization: it fails with
// an *AuditError if any PeerIP field parses as an IP address or is
// neither a step-1 hash (16 hex chars) nor a step-2 integer.
func Audit(recs []logging.Record) error {
	for i := range recs {
		if err := auditRecord(i, &recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// looksHashed reports whether s is a step-1 hash: 16 hex digits of
// either case.
func looksHashed(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F') {
			return false
		}
	}
	return true
}

// looksNumbered reports whether s is a step-2 integer. strconv.Atoi
// allocates only when it fails.
func looksNumbered(s string) bool {
	_, err := strconv.Atoi(s)
	return err == nil
}
