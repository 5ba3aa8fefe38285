package recordlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// writeCounter records each Write call separately.
type writeCounter struct{ writes [][]byte }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func TestAppendIsOneNewlineTerminatedWrite(t *testing.T) {
	var w writeCounter
	if err := Append(&w, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if len(w.writes) != 1 || string(w.writes[0]) != "{\"a\":1}\n" {
		t.Fatalf("writes = %q, want one {\"a\":1}\\n", w.writes)
	}
	if err := Append(&w, func() {}); err == nil {
		t.Fatal("unencodable value appended")
	}
	if len(w.writes) != 1 {
		t.Fatal("a failed encode still wrote")
	}
}

func TestScanDropsTornTailAndSkipsBlankLines(t *testing.T) {
	data := "{\"n\":1}\n\n  \n{\"n\":2}\r\n{\"n\":3}"
	var got []int
	consumed, err := Scan(strings.NewReader(data), func(rec []byte) error {
		var v struct{ N int }
		if err := json.Unmarshal(rec, &v); err != nil {
			return err
		}
		got = append(got, v.N)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The final record decodes but lacks its newline: its append never
	// completed, so it is not a record.
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("records %v, want [1 2]", got)
	}
	if want := int64(strings.LastIndexByte(data, '\n') + 1); consumed != want {
		t.Fatalf("consumed %d, want %d", consumed, want)
	}
}

func TestScanReportsLineOfMalformedRecord(t *testing.T) {
	bad := errors.New("bad record")
	data := "ok\n\nbad\nok\n"
	consumed, err := Scan(strings.NewReader(data), func(rec []byte) error {
		if bytes.Equal(rec, []byte("bad")) {
			return bad
		}
		return nil
	})
	if !errors.Is(err, bad) || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("got %v, want the bad-record error at line 3", err)
	}
	if consumed != int64(len("ok\n\n")) {
		t.Fatalf("consumed %d, want the bytes before the bad line", consumed)
	}
}
