package runspec

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ivn/internal/engine"
	"ivn/internal/recordlog"
)

// Journal files are JSONL: one header line identifying the run the
// entries belong to, then one engine.JournalEntry per completed trial.
// The header pins the *whole* run's canonical spec and content key —
// which bakes in the build stamp — so resuming against a different spec
// or merging fragments from a different build fails loudly instead of
// silently mixing incompatible samples.

const (
	journalKind    = "ivn-journal"
	journalVersion = 1
)

// journalHeader is the first line of a journal file.
type journalHeader struct {
	Kind string `json:"kind"`
	V    int    `json:"v"`
	// Spec is the whole run's canonical serialization (shard excluded):
	// what Merge re-executes to replay the entries.
	Spec json.RawMessage `json:"spec"`
	// Key is the whole run's content key (spec + build stamp).
	Key string `json:"key"`
	// Shard is the fragment this file checkpoints; zero for an
	// unsharded checkpoint journal.
	Shard engine.Shard `json:"shard"`
}

// headerFor builds the header a journal for spec must carry.
func headerFor(spec Spec) (journalHeader, error) {
	whole := spec.Whole()
	canon, err := whole.Canonical()
	if err != nil {
		return journalHeader{}, err
	}
	key, err := whole.Key()
	if err != nil {
		return journalHeader{}, err
	}
	var sh engine.Shard
	if spec.Shard != nil {
		sh = *spec.Shard
	}
	return journalHeader{Kind: journalKind, V: journalVersion, Spec: canon, Key: key, Shard: sh}, nil
}

// OpenJournal opens spec.Journal for checkpointing. Without Resume the
// file is created (or truncated) and stamped with the run's header.
// With Resume the existing file's header is verified against the spec —
// same whole-run key, same shard — its complete entries are loaded for
// replay, a torn final line (SIGKILL mid-append) is truncated away, and
// the file is reopened for appending. The caller owns closing f.
func OpenJournal(spec Spec) (j *engine.Journal, f *os.File, err error) {
	if spec.Journal == "" {
		return nil, nil, fmt.Errorf("runspec: no journal path in spec")
	}
	hdr, err := headerFor(spec)
	if err != nil {
		return nil, nil, err
	}

	if !spec.Resume {
		f, err := os.OpenFile(spec.Journal, os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("runspec: create journal: %w", err)
		}
		if err := recordlog.Append(f, hdr); err != nil {
			_ = f.Close()
			return nil, nil, fmt.Errorf("runspec: write journal header: %w", err)
		}
		return engine.NewJournal(f), f, nil
	}

	f, err = os.OpenFile(spec.Journal, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("runspec: open journal for resume: %w", err)
	}
	defer func() {
		if err != nil {
			_ = f.Close()
		}
	}()
	got, j, consumed, err := scanJournal(f)
	if err != nil {
		return nil, nil, fmt.Errorf("runspec: journal %s: %w", spec.Journal, err)
	}
	if got.Key != hdr.Key {
		return nil, nil, fmt.Errorf("runspec: journal %s belongs to a different run or build (key %.12s… vs this run's %.12s…)", spec.Journal, got.Key, hdr.Key)
	}
	if got.Shard != hdr.Shard {
		return nil, nil, fmt.Errorf("runspec: journal %s checkpoints shard %s, spec says %s", spec.Journal, got.Shard, hdr.Shard.String())
	}
	// Drop any torn final line so appended entries start on a clean
	// boundary; O_APPEND then keeps writes at the (new) end.
	if err = f.Truncate(consumed); err != nil {
		return nil, nil, fmt.Errorf("runspec: truncate journal %s: %w", spec.Journal, err)
	}
	j.Attach(f)
	return j, f, nil
}

// scanJournal reads a journal file: the header record, then every
// complete trial entry into a memory-only engine.Journal. consumed is
// the byte offset just past the last complete record.
func scanJournal(r io.Reader) (hdr journalHeader, j *engine.Journal, consumed int64, err error) {
	j = engine.NewJournal(nil)
	seen := false
	consumed, err = recordlog.Scan(r, func(rec []byte) error {
		if seen {
			return j.Load(rec)
		}
		seen = true
		return decodeHeader(rec, &hdr)
	})
	if err == nil && !seen {
		err = fmt.Errorf("missing journal header")
	}
	return hdr, j, consumed, err
}

// decodeHeader parses and checks a header record. The shard is validated
// here, before anything indexes by it: a header is untrusted bytes.
func decodeHeader(rec []byte, hdr *journalHeader) error {
	if err := json.Unmarshal(rec, hdr); err != nil {
		return fmt.Errorf("bad journal header: %v", err)
	}
	if hdr.Kind != journalKind {
		return fmt.Errorf("not an ivn journal (kind %q)", hdr.Kind)
	}
	if hdr.V != journalVersion {
		return fmt.Errorf("journal version %d, this build reads %d", hdr.V, journalVersion)
	}
	if err := hdr.Shard.Validate(); err != nil {
		return fmt.Errorf("bad journal header: %w", err)
	}
	return nil
}

// RunFragment executes a sharded spec: only the shard's stride of each
// trial schedule runs, every executed trial is checkpointed to
// spec.Journal, and the fragment's table output — reduced over an
// incomplete sample set — is discarded. The returned journal reports
// Recorded/Replayed counts; the file on disk is the fragment's product.
func RunFragment(ctx context.Context, lim engine.Limits, spec Spec) (*engine.Journal, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Shard == nil {
		return nil, fmt.Errorf("runspec: RunFragment needs a sharded spec (use Run for whole runs)")
	}
	j, f, err := OpenJournal(spec)
	if err != nil {
		return nil, err
	}
	lim.Shard = *spec.Shard
	lim.Journal = j
	_, _, rerr := Run(ctx, lim, spec.Whole(), nil)
	if cerr := f.Close(); cerr != nil && rerr == nil {
		rerr = fmt.Errorf("runspec: close journal %s: %w", spec.Journal, cerr)
	}
	if rerr != nil {
		return j, rerr
	}
	return j, nil
}

// fragment is one loaded journal file.
type fragment struct {
	path string
	hdr  journalHeader
	j    *engine.Journal
}

// loadFragment reads one journal file fully into memory.
func loadFragment(path string) (fragment, error) {
	f, err := os.Open(path)
	if err != nil {
		return fragment{}, fmt.Errorf("runspec: %w", err)
	}
	defer f.Close()
	hdr, j, _, err := scanJournal(f)
	if err != nil {
		return fragment{}, fmt.Errorf("runspec: %s: %w", path, err)
	}
	return fragment{path: path, hdr: hdr, j: j}, nil
}

// FindFragments lists the journal files under dir (non-recursive,
// sorted): every regular file that parses as a journal header. Files
// with other content are reported, not skipped — a merge directory
// should contain journals and nothing else.
func FindFragments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	var paths []string
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		paths = append(paths, filepath.Join(dir, ent.Name()))
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return nil, fmt.Errorf("runspec: no journal files in %s", dir)
	}
	return paths, nil
}

// Merge recombines shard journals into the whole run's result,
// byte-identical to a single-process run of the same spec on the same
// build: the whole spec (recovered from the fragment headers) re-executes
// with the union journal attached, so every journaled trial replays its
// recorded sample bit-exactly — in trial-index order, through the very
// same reduction code — and any trial no fragment covered is computed
// live. Fragments must all belong to one run/build and together cover
// every shard index; missing shards are an error naming them, because a
// silent partial merge would still "succeed" (live recompute) while
// wasting the sharding.
func Merge(ctx context.Context, lim engine.Limits, paths []string) (*engine.Result, Spec, error) {
	if len(paths) == 0 {
		return nil, Spec{}, fmt.Errorf("runspec: nothing to merge")
	}
	frags := make([]fragment, 0, len(paths))
	for _, p := range paths {
		fr, err := loadFragment(p)
		if err != nil {
			return nil, Spec{}, err
		}
		frags = append(frags, fr)
	}
	first := frags[0]
	for _, fr := range frags[1:] {
		if fr.hdr.Key != first.hdr.Key {
			return nil, Spec{}, fmt.Errorf("runspec: %s and %s journal different runs or builds (keys %.12s… vs %.12s…)", first.path, fr.path, first.hdr.Key, fr.hdr.Key)
		}
	}
	if err := checkCoverage(frags); err != nil {
		return nil, Spec{}, err
	}
	spec, err := ParseJSON(first.hdr.Spec)
	if err != nil {
		return nil, Spec{}, fmt.Errorf("runspec: %s: header spec: %w", first.path, err)
	}
	// Guard against key collisions across builds drifting out of sync
	// with the canonical form (belt to the buildStamp braces).
	if key, err := spec.Whole().Key(); err != nil || key != first.hdr.Key {
		return nil, Spec{}, fmt.Errorf("runspec: %s: header key does not match its spec on this build (journals from another build cannot merge here)", first.path)
	}
	journals := make([]*engine.Journal, len(frags))
	for i, fr := range frags {
		journals[i] = fr.j
	}
	res, _, err := Recombine(ctx, lim, spec, journals)
	if err != nil {
		return nil, Spec{}, err
	}
	return res, spec.Whole(), nil
}

// Recombine rebuilds the whole run from its fragments' journals: it
// absorbs them into one union journal and re-runs the whole spec with
// the union attached, so every journaled trial replays its recorded
// sample bit-exactly — in trial-index order, through the very same
// reduction code — and any trial no fragment covered runs live. It is
// the one merge path, behind both Merge and the daemon's sharded jobs.
// replayed counts the trials served from the union.
func Recombine(ctx context.Context, lim engine.Limits, spec Spec, frags []*engine.Journal) (res *engine.Result, replayed int64, err error) {
	union := engine.NewJournal(nil)
	for i, frag := range frags {
		if err := union.Absorb(frag); err != nil {
			return nil, 0, fmt.Errorf("runspec: fragment %d of %d: %w", i+1, len(frags), err)
		}
	}
	lim.Journal = union
	res, _, err = Run(ctx, lim, spec.Whole(), nil)
	if err != nil {
		return nil, 0, err
	}
	return res, union.Replayed(), nil
}

// checkCoverage verifies the fragments jointly cover every shard of one
// partition. A single unsharded checkpoint journal is also a valid
// "merge" input (it covers everything by itself).
func checkCoverage(frags []fragment) error {
	count := frags[0].hdr.Shard.Count
	for _, fr := range frags {
		if fr.hdr.Shard.Count != count {
			return fmt.Errorf("runspec: %s uses shard count %d, %s uses %d — fragments of different partitions cannot merge", frags[0].path, count, fr.path, fr.hdr.Shard.Count)
		}
	}
	if count <= 1 {
		if len(frags) > 1 {
			return fmt.Errorf("runspec: multiple unsharded journals for one run (keep one)")
		}
		return nil
	}
	// The count comes from untrusted headers, so nothing below is sized
	// by it: the scan stops after naming a handful of missing shards, and
	// a count beyond the fragments given always leaves some missing.
	have := make(map[int]bool, len(frags))
	for _, fr := range frags {
		have[fr.hdr.Shard.Index] = true
	}
	const named = 8
	var missing []string
	for i := 0; i < count && len(missing) < named; i++ {
		if !have[i] {
			missing = append(missing, fmt.Sprintf("%d/%d", i, count))
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if rest := count - len(have) - len(missing); rest > 0 {
		missing = append(missing, fmt.Sprintf("and %d more", rest))
	}
	return fmt.Errorf("runspec: merge is missing shard(s) %s", strings.Join(missing, ", "))
}
