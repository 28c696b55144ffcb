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

// Every runtime captures rank 0's (or the server's) end-of-run state on a
// completed run, with no Stop channel: a run is resumable from
// Result.Final whichever way it ended.
func TestFinalCapturedOnCompletion(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*Config)
	}{
		{"bsp", func(*Config) {}},
		{"cluster", func(c *Config) { c.Fault = &FaultConfig{Cluster: faultClusterCfg()} }},
		{"syncps", func(c *Config) { c.PS = &PSConfig{} }},
		{"asyncps", func(c *Config) { c.PS = &PSConfig{Async: true} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := blobCfg(33)
			cfg.Epochs = 1
			tc.set(&cfg)
			res, err := Train(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Halted {
				t.Fatal("unexpected halt")
			}
			if res.Final == nil {
				t.Fatal("completed run returned no final checkpoint")
			}
			if len(res.Final.Params) != res.GradSize || len(res.Final.Velocity) != res.GradSize {
				t.Fatalf("final checkpoint holds %d params and %d velocities for grad size %d",
					len(res.Final.Params), len(res.Final.Velocity), res.GradSize)
			}
			if res.Final.Epoch != int64(cfg.Epochs) {
				t.Fatalf("final checkpoint at epoch %d, want %d", res.Final.Epoch, cfg.Epochs)
			}
		})
	}
}
