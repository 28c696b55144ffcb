package dist

import "testing"

func TestBSPHaltCapturesAndResumes(t *testing.T) {
	stop := make(chan struct{})
	cfg := blobCfg(32)
	cfg.Epochs = 4
	cfg.Stop = stop
	cfg.OnEpoch = func(s EpochStats) {
		if s.Epoch == 0 {
			close(stop)
		}
	}
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("halted Train: %v", err)
	}
	if !res.Halted {
		t.Fatal("Halted = false after Stop closed")
	}
	if res.Final == nil {
		t.Fatal("halted run captured no final checkpoint")
	}
	want := cfg.Epochs * (2048 / 4 / 16)
	if res.Iterations >= want {
		t.Fatalf("halted run did %d iterations, want < %d", res.Iterations, want)
	}

	rest := blobCfg(32)
	rest.Epochs = 3
	rest.Resume = res.Final
	res2, err := Train(rest)
	if err != nil {
		t.Fatalf("resumed Train: %v", err)
	}
	if acc := res2.Epochs[len(res2.Epochs)-1].TestAcc; acc < 0.9 {
		t.Fatalf("resumed accuracy %.3f < 0.9", acc)
	}
}

func TestBSPCaptureFinalOnCompletion(t *testing.T) {
	cfg := blobCfg(33)
	cfg.CaptureFinal = true
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Halted {
		t.Fatal("unexpected halt")
	}
	if res.Final == nil {
		t.Fatal("CaptureFinal run returned no final checkpoint")
	}
}
