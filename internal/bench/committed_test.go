package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"efactory/internal/model"
)

// TestCommittedFiguresReproduce regenerates the six deterministic
// simulator figures at quick scale, encodes each exactly as
// `efactory-bench -jsondir` does, and compares the bytes with the copy
// committed under benchdata/. A refactor that claims "figures
// bit-identical" fails here if it is not; a PR that means to move a
// figure regenerates the file and explains the diff in CHANGES.md.
//
// All six run in this process: the trace figure's exemplar
// trace IDs come from each simulation's own tracer numbering
// (sim.Env.TracerID), not from what the process built before.
func TestCommittedFiguresReproduce(t *testing.T) {
	if testing.Short() {
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
			blob, err := json.MarshalIndent(fig.run(), "", " ")
			if err != nil {
				t.Fatal(err)
			}
			got := append(blob, '\n')
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
