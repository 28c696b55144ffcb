// Command sweep explores the compression design space: for a grid of
// drop ratios θ and quantizer widths N it reports the achieved ratio, the
// reconstruction error, and the measured codec time of the FFT pipeline
// (with spatial Top-k at the same θ as the reference point). This is the
// tool for choosing an operating point before a long training run.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"time"

	"fftgrad/internal/collective"
	"fftgrad/internal/compress"
	"fftgrad/internal/netsim"
	"fftgrad/internal/stats"
)

func main() {
	n := flag.Int("n", 1<<20, "gradient length (floats)")
	thetaList := flag.String("thetas", "0.5,0.7,0.85,0.95,0.99", "comma-separated drop ratios")
	bitsList := flag.String("bits", "6,8,10,12", "comma-separated quantizer widths")
	seed := flag.Int64("seed", 1, "random seed")
	rankList := flag.String("ranks", "16,64,256,1024", "comma-separated rank counts for the strategy table")
	groupSize := flag.Int("group-size", 8, "hierarchical group size for the strategy table")
	flag.Parse()

	thetas, err := parseFloats(*thetaList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -thetas:", err)
		os.Exit(2)
	}
	bits, err := parseInts(*bitsList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -bits:", err)
		os.Exit(2)
	}

	grad := correlated(*n, *seed)
	rec := make([]float32, *n)

	fmt.Printf("FFT pipeline sweep on a %d-element correlated gradient (%.1f MB):\n\n",
		*n, float64(*n*4)/(1<<20))
	t := &stats.Table{Headers: []string{"θ", "quant bits", "ratio", "relL2 err", "codec ms"}}
	for _, theta := range thetas {
		for _, b := range bits {
			c := compress.NewFFT(theta)
			c.QuantBits = b
			start := time.Now()
			msg, err := c.AppendCompress(nil, grad)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := c.DecompressInto(rec, msg); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			el := time.Since(start).Seconds() * 1e3
			t.AddRow(theta, b, compress.Ratio(*n, msg), stats.RelL2(grad, rec), el)
		}
	}
	fmt.Print(t.String())

	fmt.Printf("\nspatial Top-k reference at the same θ:\n")
	t2 := &stats.Table{Headers: []string{"θ", "ratio", "relL2 err"}}
	for _, theta := range thetas {
		c := compress.NewTopK(theta)
		msg, err := c.AppendCompress(nil, grad)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := c.DecompressInto(rec, msg); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t2.AddRow(theta, compress.Ratio(*n, msg), stats.RelL2(grad, rec))
	}
	fmt.Print(t2.String())

	// Exchange-strategy comparison on the paper's FDR-IB profile: predicted
	// time for one exchange of the full (uncompressed) gradient under each
	// schedule, the pure TreeReduce lower bound, and the Sec. 3.3 minimal
	// ratio k_min each strategy needs to beat the FP32 ring allreduce.
	ranks, err := parseInts(*rankList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -ranks:", err)
		os.Exit(2)
	}
	pr := netsim.InfiniBandFDR
	mBytes := *n * 4
	fmt.Printf("\nexchange strategies on %s, %.1f MB gradient (hier group size %d):\n\n",
		pr.Name, float64(mBytes)/(1<<20), *groupSize)
	t3 := &stats.Table{Headers: []string{"ranks", "ring ms", "hier ms", "tree ms", "treereduce ms",
		"k_min ring", "k_min hier", "k_min tree"}}
	ring := collective.Config{Strategy: collective.Ring}
	hier := collective.Config{Strategy: collective.Hier, GroupSize: *groupSize}
	tree := collective.Config{Strategy: collective.Tree}
	for _, p := range ranks {
		t3.AddRow(p,
			ring.ModelAllgather(pr, p, mBytes)*1e3,
			hier.ModelAllgather(pr, p, mBytes)*1e3,
			tree.ModelAllgather(pr, p, mBytes)*1e3,
			pr.TreeReduce(p, mBytes)*1e3,
			ring.KMin(pr, p, mBytes),
			hier.KMin(pr, p, mBytes),
			tree.KMin(pr, p, mBytes))
	}
	fmt.Print(t3.String())

	fmt.Println("\npick the smallest error whose ratio clears your network's minimal k" +
		" (`trainer -adapt` applies that rule live; the bench ledger's perfmodel.max_tcomm_gbps" +
		" is the fastest link on which any ratio pays off on this machine)")
}

func correlated(n int, seed int64) []float32 {
	r := rand.New(rand.NewSource(seed))
	x := make([]float32, n)
	v := 0.0
	for i := range x {
		v = 0.97*v + 0.03*r.NormFloat64()
		x[i] = float32(0.1*v + 0.002*r.NormFloat64())
	}
	return x
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
