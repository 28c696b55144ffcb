package experiments

import (
	"fftgrad/internal/stats"
)

// Fig15 reproduces the reconstruction-quality study: for a correlated
// gradient, each method's compress→decompress reconstruction is compared
// to the original via (a) its value histogram — only FFT keeps the
// near-Gaussian shape; Top-k zeroes 85% of entries; QSGD/TernGrad
// collapse onto a few levels — and (b) the cumulative distribution of
// per-element absolute errors, where FFT must show the smallest error for
// the vast majority (paper: 99.7%) of gradients.
func Fig15(o Options) error {
	n := 1 << 16
	if o.Quick {
		n = 1 << 13
	}
	g := correlatedGradient(n, o.Seed)
	_, std := stats.MeanStd(g)

	type recon struct {
		name    string
		rec     []float32
		zeros   int
		levels  int
		relL2   float64
		p997Err float64
	}
	var rows []recon
	errCDFs := map[string]*stats.ECDF{}
	for _, m := range paperMethods() {
		c := m.new()
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			return err
		}
		rec := make([]float32, n)
		if err := c.DecompressInto(rec, msg); err != nil {
			return err
		}
		e := stats.NewECDF(stats.AbsErrors(g, rec))
		errCDFs[m.name] = e
		rows = append(rows, recon{
			name:    m.name,
			rec:     rec,
			zeros:   countZeros(rec),
			levels:  distinctLevels(rec),
			relL2:   stats.RelL2(g, rec),
			p997Err: e.Quantile(0.997),
		})
	}

	t := &stats.Table{Headers: []string{
		"method", "relL2", "|err| @99.7%", "exact zeros", "distinct values"}}
	for _, r := range rows {
		t.AddRow(r.name, r.relL2, r.p997Err, r.zeros, r.levels)
	}
	o.printf("reconstruction quality at the paper's settings (θ=0.85, 10-bit FFT quant, 3-bit QSGD, TernGrad):\n%s\n", t.String())

	// Histograms of original vs FFT vs Top-k reconstructions.
	render := func(name string, x []float32) {
		h := stats.NewHistogram(-4*std, 4*std, 15)
		h.AddSlice(x)
		o.printf("%s value histogram:\n%s\n", name, h.Render(40))
	}
	render("original", g)
	for _, r := range rows {
		if r.name == "fft" || r.name == "topk" {
			render(r.name+" reconstruction", r.rec)
		}
	}

	get := func(name string) recon {
		for _, r := range rows {
			if r.name == name {
				return r
			}
		}
		return recon{}
	}
	fft, topk, qsgd, tern := get("fft"), get("topk"), get("qsgd"), get("terngrad")
	o.printf("CHECK FFT keeps the distribution (<1%% exact zeros): %v (%d zeros)\n",
		fft.zeros < n/100, fft.zeros)
	o.printf("CHECK Top-k collapses the peak (≈85%% zeros): %v (%d zeros)\n",
		topk.zeros > n*8/10, topk.zeros)
	o.printf("CHECK QSGD/TernGrad collapse to few levels: %v (qsgd %d, tern %d distinct)\n",
		qsgd.levels <= 7 && tern.levels <= 3, qsgd.levels, tern.levels)
	o.printf("CHECK FFT lowest 99.7%%-quantile error: %v (fft %.3g topk %.3g qsgd %.3g tern %.3g)\n",
		fft.p997Err <= topk.p997Err && fft.p997Err <= qsgd.p997Err && fft.p997Err <= tern.p997Err,
		fft.p997Err, topk.p997Err, qsgd.p997Err, tern.p997Err)
	return nil
}

func distinctLevels(x []float32) int {
	seen := map[float32]struct{}{}
	for _, v := range x {
		seen[v] = struct{}{}
		if len(seen) > 1024 {
			return len(seen)
		}
	}
	return len(seen)
}
