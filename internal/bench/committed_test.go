package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"efactory/internal/model"
)

// figureDirEnv marks the child half of TestCommittedFiguresReproduce and
// names the directory it writes its one figure to.
const figureDirEnv = "EFACTORY_BENCH_FIGURE_DIR"

// TestCommittedFiguresReproduce regenerates the six deterministic
// simulator figures at quick scale, encodes each exactly as
// `efactory-bench -jsondir` does, and compares the bytes with the copy
// committed under benchdata/. A refactor that claims "figures
// bit-identical" fails here if it is not; a PR that means to move a
// figure regenerates the file and explains the diff in CHANGES.md.
//
// Each figure runs in a fresh copy of the test binary, as the committed
// files were each produced by their own `efactory-bench -fig <x>` run: the
// trace figure's exemplar trace IDs embed the process-wide tracer
// sequence (trace.NewTracer), so it reproduces only in a process that has
// built no other server first.
func TestCommittedFiguresReproduce(t *testing.T) {
	childDir := os.Getenv(figureDirEnv)
	if childDir == "" && testing.Short() {
		t.Skip("regenerates six figures (~6 s)")
	}
	par := model.Default()
	sc := QuickScale()
	for _, fig := range []struct {
		key string
		run func() []Result
	}{
		{"batch", func() []Result { return FigBatch(io.Discard, &par, sc) }},
		{"fig1", func() []Result { return Fig1(io.Discard, &par, sc) }},
		{"fig9a", func() []Result { return Fig9(io.Discard, &par, sc, 0) }},
		{"getbatch", func() []Result { return FigGetBatch(io.Discard, &par, sc) }},
		{"trace", func() []Result { return FigTrace(io.Discard, &par, sc) }},
		{"txn", func() []Result { return FigTxn(io.Discard, &par, sc) }},
	} {
		name := "BENCH_" + fig.key + ".json"
		t.Run(fig.key, func(t *testing.T) {
			if childDir != "" {
				blob, err := json.MarshalIndent(fig.run(), "", " ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(childDir, name), append(blob, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			dir := t.TempDir()
			child := exec.Command(os.Args[0], "-test.run=^TestCommittedFiguresReproduce$/^"+fig.key+"$")
			child.Env = append(os.Environ(), figureDirEnv+"="+dir)
			if out, err := child.CombinedOutput(); err != nil {
				t.Fatalf("regenerating in a child process: %v\n%s", err, out)
			}
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			committed := filepath.Join("..", "..", "benchdata", name)
			want, err := os.ReadFile(committed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s no longer reproduces byte for byte (%d B regenerated, %d B committed); see the diff with\n"+
					"  go run ./cmd/efactory-bench -fig <fig> -scale quick -jsondir /tmp/fig && diff /tmp/fig/%s benchdata/",
					committed, len(got), len(want), name)
			}
		})
	}
}
