package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestTableJSONCanonical(t *testing.T) {
	tbl := NewTable("E0", "demo", "a claim", "x", "y")
	tbl.AddRow(1, 2.5)
	tbl.AddRow("a", "b")
	tbl.AddNote("note %d", 1)
	var buf bytes.Buffer
	if err := tbl.RenderJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `{"id":"E0","title":"demo","claim":"a claim","columns":["x","y"],"rows":[["1","2.500"],["a","b"]],"notes":["note 1"]}` + "\n"
	if got != want {
		t.Fatalf("canonical JSON drifted:\n got %q\nwant %q", got, want)
	}
	// The encoding is part of the serving contract: emitting it twice
	// must produce identical bytes.
	var again bytes.Buffer
	if err := tbl.RenderJSON(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), again.Bytes()) {
		t.Fatal("RenderJSON is not reproducible")
	}
}

func TestTableJSONEmptySlicesNeverNull(t *testing.T) {
	tbl := NewTable("E0", "empty", "")
	b, err := json.Marshal(tbl)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "null") {
		t.Fatalf("empty table encodes null: %s", b)
	}
}

func TestInfosSchema(t *testing.T) {
	infos := Infos()
	if len(infos) != len(All()) {
		t.Fatalf("Infos lists %d entries, registry has %d", len(infos), len(All()))
	}
	if infos[0].ID != "E1" {
		t.Fatalf("first entry %s, want E1", infos[0].ID)
	}
	for _, info := range infos {
		if info.Title == "" || info.Claim == "" {
			t.Fatalf("%s: missing title or claim", info.ID)
		}
		names := map[string]bool{}
		for _, p := range info.Params {
			names[p.Name] = true
			if p.Type == "" || p.Doc == "" {
				t.Fatalf("%s: incomplete param %+v", info.ID, p)
			}
		}
		for _, want := range []string{"seed", "scale", "workers"} {
			if !names[want] {
				t.Fatalf("%s: param schema missing %q", info.ID, want)
			}
		}
	}
}

func TestConfigContextCancelsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, id := range []string{"E1", "E9"} { // E9 exercises the GiantScan path
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Run(Config{Seed: 1, Scale: ScaleQuick, Workers: 2, Context: ctx})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", id, err)
		}
	}
}

func TestConfigProgressObservesTrialsWithoutChangingTables(t *testing.T) {
	e, err := ByID("E1")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := e.Run(Config{Seed: 1, Scale: ScaleQuick, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	hooked, err := e.Run(Config{
		Seed: 1, Scale: ScaleQuick, Workers: 2,
		Context:  context.Background(),
		Progress: func(delta int) { done.Add(int64(delta)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() == 0 {
		t.Fatal("progress hook never fired")
	}
	var a, b bytes.Buffer
	if err := plain.RenderJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := hooked.RenderJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("hooks changed the table:\n%s\n%s", a.String(), b.String())
	}
}
