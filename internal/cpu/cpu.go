// Package cpu is the one CPUID probe the vector kernels share: cfft's FFT
// butterflies and bit-reversal tile, sparsify's magnitude, compare and
// narrow sweeps, f16's rounding front end, tensor's matrix products,
// compress's fold and optim's momentum step all switch on cpu.AVX2, from
// their amd64, !purego files. On any other build nothing imports it.
package cpu
