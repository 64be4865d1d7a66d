package scenario

// The platform's failure-handling behaviour (paper §III-A: the manager
// notices dead or disconnected honeypots, relaunches them and re-pushes
// their assignment) used to be exercised by two hand-assembled worlds
// that crashed hosts between RunUntil calls. The scenario engine's
// FaultSchedule is that pattern as data; these tests declare the same
// outage and crash campaigns as specs and assert on the Result.

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/honeypot"
	"repro/internal/logging"
)

// faultSpec is the shared scaffolding of both failure campaigns: a
// small fleet, a modest population, frequent collection.
func faultSpec(name string, seed int64, days, honeypots int) Spec {
	fleet := make([]HoneypotSpec, honeypots)
	for i := range fleet {
		fleet[i] = HoneypotSpec{
			ID:       "hp-" + string(rune('0'+i)),
			Strategy: honeypot.RandomContent.String(),
			Files:    FilesSpec{Kind: "four-bait"},
		}
	}
	return Spec{
		Name:     name,
		Seed:     seed,
		Days:     days,
		Scale:    1.0,
		Catalog:  catalog.Config{NumFiles: 2000, Vocabulary: 400, PopularityExp: 0.9, Seed: 5},
		Topology: Topology{Servers: 1},
		Fleet:    fleet,
		Workloads: []WorkloadSpec{{
			Label:          name + "-pop",
			ArrivalsPerDay: 60, // per unit weight; uniform weight 1 per bait file
			Targets:        TargetsSpec{Kind: "static"},
		}},
		Collection: Collection{Every: Duration(30 * time.Minute)},
	}
}

// countAround splits a dataset at the fault window's edges.
func countAround(res *Result, down, up time.Time) (before, after int) {
	for _, r := range res.Dataset.Records {
		if r.Time.Before(down) {
			before++
		}
		if r.Time.After(up) {
			after++
		}
	}
	return
}

// TestServerOutageRecovery injects a directory-server outage in the
// middle of a campaign and verifies the platform behaves like the
// paper's: the manager's health check notices disconnected honeypots and
// re-pushes their assignment once the server returns, and measurement
// resumes (records exist on both sides of the outage).
func TestServerOutageRecovery(t *testing.T) {
	spec := faultSpec("outage", 123, 4, 4)
	spec.Faults = FaultSchedule{{
		Kind:     FaultServerOutage,
		Server:   0,
		At:       Duration(24 * time.Hour),
		Downtime: Duration(6 * time.Hour),
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Faults) != 2 {
		t.Fatalf("fault log: %+v", res.Faults)
	}
	down, up := res.Faults[0], res.Faults[1]
	if down.Kind != "server-outage" || up.Kind != "server-restart" {
		t.Fatalf("fault log: %+v", res.Faults)
	}
	if !up.At.Equal(res.Start.Add(30 * time.Hour)) {
		t.Errorf("restart at %v, want %v", up.At, res.Start.Add(30*time.Hour))
	}

	before, after := countAround(res, down.At, up.At)
	if before == 0 {
		t.Error("no records before the outage")
	}
	if after == 0 {
		t.Error("no records after recovery: measurement did not resume")
	}
	// Every honeypot must have resumed measuring on the restarted
	// server: the health check re-pushed all four assignments.
	perHP := map[string]int{}
	for _, r := range res.Dataset.Records {
		if r.Time.After(up.At) {
			perHP[r.Honeypot]++
		}
	}
	for _, id := range res.HoneypotIDs {
		if perHP[id] == 0 {
			t.Errorf("honeypot %s observed nothing after the restart", id)
		}
	}
	// The restarted server process indexed the re-advertisements.
	if res.ServerStats.FilesIndexed == 0 {
		t.Error("re-advertisement missing after restart")
	}
}

// TestHoneypotCrashRelaunchInCampaign crashes a honeypot host mid-run
// via the fault schedule and verifies the engine's relaunch path
// (Manager.ReplaceHandle) restores coverage.
func TestHoneypotCrashRelaunchInCampaign(t *testing.T) {
	spec := faultSpec("relaunch", 321, 3, 1)
	spec.Fleet[0].ID = "hp-frail"
	spec.Fleet[0].Strategy = honeypot.NoContent.String()
	spec.Faults = FaultSchedule{{
		Kind:     FaultHoneypotCrash,
		Honeypot: "hp-frail",
		At:       Duration(24 * time.Hour),
		Downtime: Duration(4 * time.Hour),
	}}
	res, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	if res.Relaunches["hp-frail"] != 1 {
		t.Fatalf("relaunches: %v", res.Relaunches)
	}
	if len(res.Faults) != 2 || res.Faults[1].Kind != "honeypot-relaunch" {
		t.Fatalf("fault log: %+v", res.Faults)
	}
	before, after := countAround(res, res.Faults[0].At, res.Faults[1].At)
	if before == 0 {
		t.Error("no records before the crash")
	}
	if after == 0 {
		t.Error("no records after the relaunch: honeypot did not resume")
	}
	// The relaunched process re-advertised and kept serving HELLOs.
	if res.HoneypotStats["hp-frail"].Hello == 0 {
		t.Error("relaunched honeypot saw no HELLOs")
	}
	// Its pre-crash memory buffer died with the host, but collected
	// records survived in the manager: the dataset spans both lives.
	kinds := map[logging.Kind]bool{}
	for _, r := range res.Dataset.Records {
		kinds[r.Kind] = true
	}
	if !kinds[logging.KindHello] {
		t.Error("dataset lost its HELLO records")
	}
}
