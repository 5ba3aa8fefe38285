package runspec

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ivn/internal/engine"
	"ivn/internal/recordlog"
)

// badHeaderFragment is a fragment file whose header names the given
// shard: everything else about it is a valid fig2 journal.
func badHeaderFragment(t *testing.T, dir, name, shard string) string {
	t.Helper()
	spec := Spec{Experiment: "fig2", Seed: 1, Quick: true}
	canon, err := spec.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	key, err := spec.Key()
	if err != nil {
		t.Fatal(err)
	}
	data := fmt.Sprintf(`{"kind":"ivn-journal","v":1,"spec":%s,"key":"%s","shard":%s}
{"label":"x","seed":1,"occ":0,"trial":0,"sample":1}
`, canon, key, shard)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMergeRejectsBadHeaderShards(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct{ name, shard, want string }{
		{"index-out-of-range", `{"index":5,"count":2}`, "out of range"},
		{"huge-count", `{"index":0,"count":4000000000000000000}`, "missing shard"},
	} {
		path := badHeaderFragment(t, dir, tc.name+".jsonl", tc.shard)
		_, _, err := Merge(context.Background(), engine.Limits{}, []string{path, path})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// FuzzRecordLog drives the record-log scanner, the fragment loader and
// the merge coverage check with arbitrary bytes. The committed corpus in
// testdata/fuzz/FuzzRecordLog (torn tails, malformed lines, the bad shard
// headers above) replays under plain `go test`.
func FuzzRecordLog(f *testing.F) {
	for _, path := range compatFragments {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		// The first lines are enough to reach every loader branch.
		f.Add(data[:bytes.IndexByte(data, '\n')+1])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, consumed := scanAll(t, data)
		if consumed < 0 || consumed > int64(len(data)) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		if consumed > 0 && data[consumed-1] != '\n' {
			t.Fatalf("consumed %d does not end on a newline", consumed)
		}
		again, reconsumed := scanAll(t, data[:consumed])
		if reconsumed != consumed || !reflect.DeepEqual(again, recs) {
			t.Fatalf("rescanning the consumed prefix gave %d records (%d bytes), first scan %d (%d bytes)", len(again), reconsumed, len(recs), consumed)
		}

		hdr, j, jconsumed, err := scanJournal(bytes.NewReader(data))
		if jconsumed > consumed {
			t.Fatalf("journal scan consumed %d, past the record scan's %d", jconsumed, consumed)
		}
		if err != nil {
			return
		}
		fr := fragment{path: "fuzz", hdr: hdr, j: j}
		_ = checkCoverage([]fragment{fr})
		_ = checkCoverage([]fragment{fr, fr})
	})
}

// scanAll collects every record Scan hands out.
func scanAll(t *testing.T, data []byte) ([][]byte, int64) {
	var recs [][]byte
	consumed, err := recordlog.Scan(bytes.NewReader(data), func(rec []byte) error {
		recs = append(recs, append([]byte(nil), rec...))
		return nil
	})
	if err != nil {
		t.Fatalf("scan with an accepting callback failed: %v", err)
	}
	return recs, consumed
}
