module fftgrad/bench

go 1.22

require fftgrad v0.0.0

replace fftgrad => ../
