package nn

import (
	"fmt"
	"math"

	"fftgrad/internal/tensor"
)

// SoftmaxCE computes the softmax cross-entropy loss and its gradient with
// respect to the logits, averaged over the batch.
type SoftmaxCE struct{}

// Loss returns the mean cross-entropy of logits [N×classes] against the
// integer labels, plus dL/dlogits with the same shape, in a new tensor.
func (l SoftmaxCE) Loss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	return l.LossInto(nil, logits, labels)
}

// LossInto is Loss writing dL/dlogits into dl, the tensor a previous call
// returned (nil on the first), which it reshapes, or replaces with a new
// one when its buffer is too small. A training loop that passes back what
// it got allocates nothing.
func (SoftmaxCE) LossInto(dl, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, c := logits.Dim(0), logits.Dim(1)
	checkLabels(labels, n)
	dl = reuse(dl, n, c)
	var total float64
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		// stable softmax
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - maxv))
		}
		logSum := math.Log(sum)
		lab := labels[i]
		if lab < 0 || lab >= c {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lab, c))
		}
		total += logSum - float64(row[lab]-maxv)
		drow := dl.Data[i*c : (i+1)*c]
		for j, v := range row {
			p := float32(math.Exp(float64(v-maxv)) / sum)
			drow[j] = p * invN
		}
		drow[lab] -= invN
	}
	return total / float64(n), dl
}

// Accuracy returns the top-1 accuracy of logits against labels.
func Accuracy(logits *tensor.Tensor, labels []int) float64 {
	n, c := logits.Dim(0), logits.Dim(1)
	checkLabels(labels, n)
	correct := 0
	for i := 0; i < n; i++ {
		row := logits.Data[i*c : (i+1)*c]
		best := 0
		for j := 1; j < c; j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		if best == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// checkLabels panics unless there is one label per sample of a batch of n.
func checkLabels(labels []int, n int) {
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
}
