package compress

import "testing"

func TestRegistryBuildsEverything(t *testing.T) {
	names := Algorithms()
	if len(names) != 6 {
		t.Fatalf("expected 6 algorithms, got %v", names)
	}
	g := smoothGrad(1000, 1)
	dst := make([]float32, len(g))
	for _, name := range names {
		c, err := New(name, 0.85)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != c.Name() {
			t.Errorf("registry name %q != compressor name %q", name, c.Name())
		}
		msg, err := c.AppendCompress(nil, g)
		if err != nil {
			t.Fatalf("%s compress: %v", name, err)
		}
		if err := c.DecompressInto(dst, msg); err != nil {
			t.Fatalf("%s decompress: %v", name, err)
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("zstd", 0.5); err == nil {
		t.Fatal("unknown algorithm should error")
	}
}
