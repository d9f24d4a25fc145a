package server

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// FuzzJournalReplay feeds arbitrary bytes to smsd's crash-recovery path
// as the journal file. Replay must never panic, must only return jobs it
// can resubmit (a non-empty spec kind), and must leave the file in a
// state that replays to the same jobs with no torn tail left to cut.
func FuzzJournalReplay(f *testing.F) {
	spec := jobSpec{Kind: "run", Target: "sparse/sms", Run: &RunRequest{Workload: "sparse", Prefetcher: "sms"}}
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	var valid []byte
	for _, rec := range []journalRecord{
		{Op: journalOpAccepted, ID: "aaaa", Time: now, Spec: &spec},
		{Op: journalOpStarted, ID: "aaaa", Time: now.Add(time.Second)},
		{Op: journalOpSettled, ID: "bbbb", Time: now, State: JobDone, Spec: &jobSpec{Kind: "figure", Figure: "fig2"}, Created: now},
		{Op: journalOpSettled, ID: "cccc", Time: now, State: JobFailed, Error: "boom"},
		{Op: "future-op", ID: "aaaa", Time: now},
	} {
		buf, err := frame(rec)
		if err != nil {
			f.Fatal(err)
		}
		valid = append(valid, buf...)
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])           // torn mid-payload
	f.Add(append(slices.Clone(valid), 7)) // torn mid-header
	corrupt := slices.Clone(valid)
	corrupt[12] ^= 0xff // first payload no longer matches its CRC
	f.Add(corrupt)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversized length

	// One file per fuzzing process, rewritten per input: a process runs
	// its inputs one at a time.
	path := filepath.Join(f.TempDir(), "journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jl, jobs, err := openJournal(path, nil, testLogger())
		if err != nil {
			t.Fatalf("replay of a readable file failed: %v", err)
		}
		jl.close()
		for _, jj := range jobs {
			if jj.spec.Kind == "" {
				t.Fatalf("replay returned job %q with no spec kind", jj.id)
			}
		}

		jl2, again, err := openJournal(path, nil, testLogger())
		if err != nil {
			t.Fatalf("reopen after truncation failed: %v", err)
		}
		defer jl2.close()
		if n := jl2.tornCount(); n != 0 {
			t.Fatalf("reopen found %d torn frames; the first replay should have cut them", n)
		}
		if !slices.Equal(jobIDs(jobs), jobIDs(again)) {
			t.Fatalf("reopen replayed jobs %v, first replay %v", jobIDs(again), jobIDs(jobs))
		}
	})
}

func jobIDs(jobs []*journalJob) []string {
	ids := make([]string, len(jobs))
	for i, jj := range jobs {
		ids[i] = jj.id
	}
	return ids
}
