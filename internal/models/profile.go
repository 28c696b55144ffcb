package models

import "fmt"

// LayerProfile describes one parameterized layer of a full-size network
// for the communication experiments: how many gradient bytes it ships per
// iteration and how much compute one iteration costs.
type LayerProfile struct {
	Name       string
	ParamCount int     // learnable scalars (gradient length)
	FLOPs      float64 // forward+backward FLOPs per iteration at BatchSize
}

// GradBytes returns the per-iteration gradient message size (FP32).
func (l LayerProfile) GradBytes() int { return l.ParamCount * 4 }

// CommProfile is the per-layer communication/compute profile of one
// network at a fixed batch size.
type CommProfile struct {
	Name      string
	BatchSize int
	Layers    []LayerProfile
}

// TotalParams returns the total learnable scalar count.
func (p *CommProfile) TotalParams() int {
	t := 0
	for _, l := range p.Layers {
		t += l.ParamCount
	}
	return t
}

// TotalGradBytes returns the full gradient size in bytes (FP32).
func (p *CommProfile) TotalGradBytes() int { return p.TotalParams() * 4 }

// TotalFLOPs returns the per-iteration compute cost.
func (p *CommProfile) TotalFLOPs() float64 {
	var t float64
	for _, l := range p.Layers {
		t += l.FLOPs
	}
	return t
}

// convProfile builds a convolution layer profile. FLOPs counts forward
// (2·out·inC·k² MACs) and roughly 2x more for the backward pass.
func convProfile(name string, inC, outC, k, outH, outW, batch int) LayerProfile {
	params := outC*inC*k*k + outC
	fwd := 2 * float64(outH*outW) * float64(outC) * float64(inC) * float64(k*k) * float64(batch)
	return LayerProfile{Name: name, ParamCount: params, FLOPs: 3 * fwd}
}

// denseProfile builds a fully-connected layer profile.
func denseProfile(name string, in, out, batch int) LayerProfile {
	params := in*out + out
	fwd := 2 * float64(in) * float64(out) * float64(batch)
	return LayerProfile{Name: name, ParamCount: params, FLOPs: 3 * fwd}
}

// AlexNetImageNetProfile reproduces the classic 8-layer AlexNet on
// 227×227 ImageNet at the paper's per-GPU batch size of 64. Its total
// gradient is ≈ 244 MB — the "250 MB" of Sec. 2.1 — with >90% of it in
// the three FC layers, while >90% of the compute is in the convolutions:
// the structure that makes overlap easy (Fig. 2a).
func AlexNetImageNetProfile() *CommProfile {
	b := 64
	return &CommProfile{
		Name:      "AlexNet",
		BatchSize: b,
		Layers: []LayerProfile{
			convProfile("conv1 11x11/4", 3, 96, 11, 55, 55, b),
			convProfile("conv2 5x5", 96, 256, 5, 27, 27, b),
			convProfile("conv3 3x3", 256, 384, 3, 13, 13, b),
			convProfile("conv4 3x3", 384, 384, 3, 13, 13, b),
			convProfile("conv5 3x3", 384, 256, 3, 13, 13, b),
			denseProfile("fc6", 256*6*6, 4096, b),
			denseProfile("fc7", 4096, 4096, b),
			denseProfile("fc8", 4096, 1000, b),
		},
	}
}

// ResNet32CIFARProfile reproduces the CIFAR-10 ResNet-32 of He et al.
// (3 stages × 5 blocks × 2 convs + stem + classifier) at the paper's
// per-GPU batch size of 128. Every layer is a small 3×3 (or 1×1)
// convolution: per-layer compute is comparable to per-layer
// communication, which kills overlap (Fig. 2b).
func ResNet32CIFARProfile() *CommProfile {
	b := 128
	p := &CommProfile{Name: "ResNet32", BatchSize: b}
	add := func(l LayerProfile) { p.Layers = append(p.Layers, l) }

	add(convProfile("stem 3x3", 3, 16, 3, 32, 32, b))
	widths := []int{16, 32, 64}
	sizes := []int{32, 16, 8}
	inC := 16
	for stage := 0; stage < 3; stage++ {
		outC := widths[stage]
		hw := sizes[stage]
		for blk := 0; blk < 5; blk++ {
			name := fmt.Sprintf("s%db%d", stage+1, blk+1)
			add(convProfile(name+".conv1", inC, outC, 3, hw, hw, b))
			add(convProfile(name+".conv2", outC, outC, 3, hw, hw, b))
			if inC != outC {
				add(convProfile(name+".proj", inC, outC, 1, hw, hw, b))
			}
			inC = outC
		}
	}
	add(denseProfile("fc", 64, 10, b))
	return p
}
