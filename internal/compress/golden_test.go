package compress

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_wire*.sha256 from the current code")

// goldenSignal builds the fixed inputs of the wire-bytes pin. It is
// self-contained on purpose: the pin must not move when another test's
// helper does.
func goldenSignal(kind string, n int) []float32 {
	x := make([]float32, n)
	switch kind {
	case "smooth":
		r := rand.New(rand.NewSource(int64(n) + 17))
		v := 0.0
		for i := range x {
			v = 0.97*v + 0.03*r.NormFloat64()
			x[i] = float32(0.1*v + 0.002*r.NormFloat64())
		}
	case "periodic": // many exactly-equal transform magnitudes: the tie rule
		for i := range x {
			x[i] = float32(i%16) - 7.5
		}
	case "impulse":
		if n > 0 {
			x[n/3] = 5
		}
	case "zeros":
	}
	return x
}

// goldenCodec builds a fresh codec; the transform codecs take the two
// settings the ablations vary.
func goldenCodec(name string, theta float64, half bool, bits int) Compressor {
	switch name {
	case "fft":
		c := NewFFT(theta)
		c.UseHalf, c.QuantBits = half, bits
		return c
	case "dct":
		c := NewDCT(theta)
		c.UseHalf, c.QuantBits = half, bits
		return c
	}
	c, err := New(name, theta)
	if err != nil {
		panic(err)
	}
	return c
}

type goldenVariant struct {
	half bool
	bits int
}

func goldenVariants(name string) []goldenVariant {
	if name == "fft" || name == "dct" {
		return []goldenVariant{{true, 10}, {false, 10}, {true, 24}, {false, 24}}
	}
	return []goldenVariant{{true, 10}} // ignored by the codec
}

var (
	goldenThetas  = []float64{0, 0.5, 0.85, 0.99, 1}
	goldenSignals = []string{"smooth", "periodic", "impulse", "zeros"}
)

// goldenMessages compresses every (codec, variant, n, θ, signal) case
// with a fresh codec and returns case id → "len sha256".
func goldenMessages(t *testing.T, ns []int) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, name := range Algorithms() {
		for _, v := range goldenVariants(name) {
			for _, n := range ns {
				for _, sig := range goldenSignals {
					g := goldenSignal(sig, n)
					for _, theta := range goldenThetas {
						id := fmt.Sprintf("%s/half=%t/bits=%d/n=%d/theta=%g/%s", name, v.half, v.bits, n, theta, sig)
						msg, err := goldenCodec(name, theta, v.half, v.bits).AppendCompress(nil, g)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						out[id] = fmt.Sprintf("%d %x", len(msg), sha256.Sum256(msg))
					}
				}
			}
		}
	}
	return out
}

// goldenSequences pins the state a reused transform codec carries from
// one message to the next: the cached quantizer (kept while the range
// stays within 2x, re-tuned beyond it) and a θ change between messages.
func goldenSequences(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	base := goldenSignal("smooth", 5000)
	scaled := func(s float32) []float32 {
		g := make([]float32, len(base))
		for i, v := range base {
			g[i] = v * s
		}
		return g
	}
	for _, name := range []string{"fft", "dct"} {
		c := goldenCodec(name, 0.85, true, 10)
		h := sha256.New()
		total := 0
		for step, s := range []float32{1, 1.5, 4, 0.25, 1} {
			if step == 3 {
				c.(ThetaSetter).SetTheta(0.5)
			}
			msg, err := c.AppendCompress(nil, scaled(s))
			if err != nil {
				t.Fatalf("%s sequence step %d: %v", name, step, err)
			}
			h.Write(msg)
			total += len(msg)
		}
		out[name+"/sequence"] = fmt.Sprintf("%d %x", total, h.Sum(nil))
	}
	return out
}

// checkGolden compares got against the pin file: every generated case
// must match its pinned "len sha256" and, unless partial, the table must
// cover the file.
func checkGolden(t *testing.T, file string, got map[string]string, partial bool) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *updateGolden {
		ids := make([]string, 0, len(got))
		for id := range got {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		var b strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&b, "%s %s\n", id, got[id])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		id, want, _ := strings.Cut(line, " ")
		pinned[id] = want
	}
	bad := 0
	for id, have := range got {
		if want := pinned[id]; want != have {
			if bad++; bad <= 10 {
				t.Errorf("%s: wire bytes changed: got %q, pinned %q", id, have, want)
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more changed cases", bad-10)
	}
	if !partial && len(pinned) != len(got) {
		t.Errorf("%s pins %d cases, the table generates %d", path, len(pinned), len(got))
	}
}

// TestGoldenWireBytes pins the exact message of all six codecs on fixed
// inputs (length and SHA-256 per case, testdata/golden_wire.sha256). A
// refactor that claims "no wire byte changed" passes it unmodified; a
// deliberate format change regenerates it with -update-golden and says so.
func TestGoldenWireBytes(t *testing.T) {
	ns := []int{2, 100, 4096, 5000, 1 << 16}
	short := testing.Short() && !*updateGolden
	if short {
		ns = ns[:4] // the race pass checks the pin without its 2^16 column
	}
	got := goldenMessages(t, ns)
	for id, v := range goldenSequences(t) {
		got[id] = v
	}
	checkGolden(t, "golden_wire.sha256", got, short)
}
