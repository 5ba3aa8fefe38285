// Package recordlog is the one JSONL framing behind every append-only
// log in the repository: the engine's per-trial journal, runspec's shard
// fragment files (a header record, then trial entries) and the service's
// job journal. Each log appends one JSON value per line and reloads by
// scanning lines; the framing rules live here so the three formats
// cannot drift apart.
//
// The newline is the commit marker. Append writes a record and its
// newline in a single Write, so a process killed mid-append leaves at
// most one torn final line — bytes without their newline — and Scan
// drops exactly that line, whether or not its bytes happen to decode.
// Every other line must decode: a malformed interior line is corruption,
// not a torn write, and is reported with its line number.
package recordlog

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Append writes v's JSON encoding and a trailing newline to w as one
// Write call. Callers that share w between goroutines serialize calls.
func Append(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(line, '\n'))
	return err
}

// Scan reads newline-terminated records from r and hands each non-blank
// one to fn, without its newline. It returns consumed, the byte offset
// just past the last complete line: the length a resuming writer
// truncates the file to before appending, so new records start on a
// clean boundary. A final line without a newline is a torn append and is
// never handed to fn. An error from fn stops the scan and is returned
// with the record's 1-based line number; consumed then ends before that
// line.
func Scan(r io.Reader, fn func(record []byte) error) (consumed int64, err error) {
	br := bufio.NewReader(r)
	for line := 1; ; line++ {
		raw, rerr := br.ReadBytes('\n')
		if rerr == io.EOF {
			return consumed, nil
		}
		if rerr != nil {
			return consumed, rerr
		}
		if rec := bytes.TrimSpace(raw); len(rec) > 0 {
			if ferr := fn(rec); ferr != nil {
				return consumed, fmt.Errorf("line %d: %w", line, ferr)
			}
		}
		consumed += int64(len(raw))
	}
}
