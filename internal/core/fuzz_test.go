package core

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad asserts that arbitrary bytes never panic the model loader, and
// that a loaded model (when loading succeeds) routes without panicking.
func FuzzLoad(f *testing.F) {
	// Seed with a real serialized model and mutations of it.
	data := fourBlobs(99, 30)
	cfg := quickConfig()
	g, err := Train(data, cfg)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.String()
	f.Add(valid)
	f.Add(strings.Replace(valid, `"rows":2`, `"rows":9999`, 1))
	f.Add(strings.Replace(valid, `"version":1`, `"version":2`, 1))
	f.Add("{}")
	f.Add("")
	f.Add(`{"version":1,"dim":1,"nodes":[{"id":0,"depth":1,"parentId":-1,"rows":1,"cols":1,"weights":[0]}]}`)

	f.Fuzz(func(t *testing.T, in string) {
		m, err := Load(strings.NewReader(in))
		if err != nil {
			return
		}
		// Any successfully loaded model must route safely.
		x := make([]float64, m.Dim())
		p := m.Route(x)
		if p.NodeID < 0 {
			t.Fatal("loaded model routed to invalid node")
		}
		pt := m.RouteTrained(x)
		if pt.NodeID < 0 {
			t.Fatal("loaded model RouteTrained to invalid node")
		}
		_ = m.Stats()
	})
}

// FuzzReadCompiledBinary asserts that arbitrary bytes never panic the
// compiled-model loader, and that a successfully loaded compiled model
// routes and decompiles without panicking.
func FuzzReadCompiledBinary(f *testing.F) {
	data := fourBlobs(42, 30)
	g, err := Train(data, quickConfig())
	if err != nil {
		f.Fatal(err)
	}
	var blob bytes.Buffer
	if err := Compile(g).WriteBinary(&blob); err != nil {
		f.Fatal(err)
	}
	valid := blob.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:9])
	f.Add([]byte("GHSOMCB1"))
	f.Add([]byte(""))
	mut := append([]byte(nil), valid...)
	if len(mut) > 32 {
		mut[12] ^= 0xff
		mut[28] ^= 0x01
	}
	f.Add(mut)

	f.Fuzz(func(t *testing.T, in []byte) {
		c, err := ReadCompiledBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		x := make([]float64, c.Dim())
		_ = c.RouteTrained(x)
		_ = c.Stats()
		if back, err := c.Decompile(); err == nil {
			_ = back.Stats()
		}
	})
}
