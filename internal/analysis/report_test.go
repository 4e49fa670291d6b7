package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func reportFindings(baseDir string) []Finding {
	return []Finding{
		{
			Analyzer: "lockorder",
			Pos:      token.Position{Filename: filepath.Join(baseDir, "internal/serve/serve.go"), Line: 40, Column: 2},
			Message:  "acquires session.mu while holding Server.mu",
		},
		{
			Analyzer: "goroleak",
			Pos:      token.Position{Filename: filepath.Join(baseDir, "internal/gateway/gateway.go"), Line: 181, Column: 2},
			Message:  "goroutine has no visible join or cancel path",
		},
	}
}

func TestWriteJSONRelativizesPaths(t *testing.T) {
	base := t.TempDir()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, base, reportFindings(base)); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2", len(got))
	}
	if got[0]["file"] != "internal/serve/serve.go" {
		t.Errorf("file = %q, want module-relative path", got[0]["file"])
	}
	if got[0]["analyzer"] != "lockorder" || got[0]["line"] != float64(40) {
		t.Errorf("unexpected first finding: %v", got[0])
	}
}

func TestWriteSARIF(t *testing.T) {
	base := t.TempDir()
	var buf bytes.Buffer
	analyzers := []*Analyzer{{Name: "lockorder", Doc: "checks lock acquisition order\nmore detail"}}
	if err := WriteSARIF(&buf, base, analyzers, reportFindings(base)); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("unexpected log shape: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tsvlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != 1 || run.Tool.Driver.Rules[0].ID != "lockorder" {
		t.Errorf("rules = %+v", run.Tool.Driver.Rules)
	}
	if strings.Contains(run.Tool.Driver.Rules[0].ShortDescription.Text, "more detail") {
		t.Errorf("rule description should be first Doc line only: %q", run.Tool.Driver.Rules[0].ShortDescription.Text)
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	loc := run.Results[0].Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/serve/serve.go" || loc.Region.StartLine != 40 {
		t.Errorf("unexpected location: %+v", loc)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	base := t.TempDir()
	findings := reportFindings(base)
	path := filepath.Join(base, "baseline.json")
	if err := WriteBaselineFile(path, base, findings); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Findings) != 2 {
		t.Fatalf("baseline has %d entries, want 2", len(b.Findings))
	}

	// Every recorded finding is covered; nothing fresh, nothing stale.
	fresh, stale := b.Apply(base, findings)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("round trip: fresh=%v stale=%v", fresh, stale)
	}

	// Line drift must not invalidate entries.
	moved := make([]Finding, len(findings))
	copy(moved, findings)
	moved[0].Pos.Line += 100
	fresh, stale = b.Apply(base, moved)
	if len(fresh) != 0 || len(stale) != 0 {
		t.Fatalf("line drift: fresh=%v stale=%v", fresh, stale)
	}

	// A new finding is fresh; a fixed finding leaves its entry stale.
	extra := append(moved[:1:1], Finding{
		Analyzer: "ctxflow",
		Pos:      token.Position{Filename: filepath.Join(base, "internal/incr/incr.go"), Line: 9, Column: 1},
		Message:  "can reach core.MapInto but takes no context.Context",
	})
	fresh, stale = b.Apply(base, extra)
	if len(fresh) != 1 || fresh[0].Analyzer != "ctxflow" {
		t.Fatalf("fresh = %v, want the ctxflow finding", fresh)
	}
	if len(stale) != 1 || stale[0].Analyzer != "goroleak" {
		t.Fatalf("stale = %v, want the goroleak entry", stale)
	}
}

func TestLoadBaselineRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil {
		t.Fatal("LoadBaseline accepted malformed JSON")
	}
}
