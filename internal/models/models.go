// Package models builds the networks the experiments train, at a scale a
// CPU can train, plus byte-accurate communication profiles of the paper's
// full-size originals for the network experiments.
//
// Two architecture classes matter to the paper's argument:
//
//   - linear CNNs with big early kernels (AlexNet): per-layer compute
//     dwarfs per-layer communication, so overlapping communication with
//     computation works;
//   - non-linear CNNs built from many small kernels (ResNet): per-layer
//     compute ≈ communication, so overlap fails and compression is the
//     remaining lever (Sec. 2.1).
//
// The profiles carry both classes; the trainable constructors are the
// linear one (AlexNetStyle, TinyCNN) and a plain MLP.
package models

import (
	"math/rand"

	"fftgrad/internal/nn"
)

// AlexNetStyle is a scaled-down linear CNN in the AlexNet mold: a large
// early kernel, a deep fully-connected head holding most parameters, no
// normalization, no skips. Input 3×32×32, width scaled by scale (>= 1).
func AlexNetStyle(classes, scale int, seed int64) *nn.Network {
	if scale < 1 {
		scale = 1
	}
	r := rand.New(rand.NewSource(seed))
	c1, c2, c3 := 8*scale, 16*scale, 24*scale
	fc := 64 * scale
	return nn.Sequential(
		nn.NewConv2D(3, c1, 5, 1, 2, r), // the "11×11-class" big kernel, scaled
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 0), // 16×16
		nn.NewConv2D(c1, c2, 5, 1, 2, r),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 0), // 8×8
		nn.NewConv2D(c2, c3, 3, 1, 1, r),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 0), // 4×4
		nn.NewFlatten(),
		nn.NewDense(c3*4*4, fc, r), // FC layers dominate params, like AlexNet
		nn.NewReLU(),
		nn.NewDense(fc, classes, r),
	)
}

// TinyCNN is a two-conv classifier for 3×size×size images (size must be
// divisible by 4), small enough for the CPU convergence experiments.
func TinyCNN(classes, size int, seed int64) *nn.Network {
	r := rand.New(rand.NewSource(seed))
	return nn.Sequential(
		nn.NewConv2D(3, 8, 3, 1, 1, r),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 0),
		nn.NewConv2D(8, 16, 3, 1, 1, r),
		nn.NewReLU(),
		nn.NewMaxPool2D(2, 0),
		nn.NewFlatten(),
		nn.NewDense(16*(size/4)*(size/4), classes, r),
	)
}

// MLP is a plain fully-connected classifier for flat feature vectors,
// used by the fastest-running convergence experiments.
func MLP(in, hidden, classes int, seed int64) *nn.Network {
	r := rand.New(rand.NewSource(seed))
	return nn.Sequential(
		nn.NewDense(in, hidden, r),
		nn.NewReLU(),
		nn.NewDense(hidden, hidden, r),
		nn.NewReLU(),
		nn.NewDense(hidden, classes, r),
	)
}
