package planstore

import "testing"

// BenchmarkPlanEncode pins the serialization cost of the reference
// plan (resnet18, low-power): the write half of what every compile
// pays once to make later restarts cheap.
func BenchmarkPlanEncode(b *testing.B) {
	k := testKey("resnet18", 1)
	p := compileTestPlan(b, "resnet18", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(k, p); err != nil {
			b.Fatal(err)
		}
	}
}

// restartNetworks are the networks a restart against a warm store
// loads: the e2e compile-restart workload reads two mobilenetv2 plans
// for every resnet18 one.
var restartNetworks = []string{"resnet18", "mobilenetv2"}

// BenchmarkPlanDecode pins the read half — header and integrity
// checks plus full plan reconstruction — the per-key cost a restarted
// process pays instead of a compile. Throughput is in encoded bytes.
func BenchmarkPlanDecode(b *testing.B) {
	for _, network := range restartNetworks {
		b.Run(network, func(b *testing.B) {
			k := testKey(network, 1)
			data, err := Encode(k, compileTestPlan(b, network, 1))
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Decode(k, data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStoreGet pins what a restarted server pays per key: a
// directory read, the header and integrity checks and a full decode.
// Two keys of one network alternate, and every Get reads the disk.
func BenchmarkStoreGet(b *testing.B) {
	for _, network := range restartNetworks {
		b.Run(network, func(b *testing.B) {
			dir := b.TempDir()
			w, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			keys := []Key{testKey(network, 1), testKey(network, 2)}
			for _, k := range keys {
				if err := w.Put(k, compileTestPlan(b, network, k.Seed)); err != nil {
					b.Fatal(err)
				}
			}
			data, err := w.backend.Load(keys[0].Hash())
			if err != nil {
				b.Fatal(err)
			}
			d, err := OpenDir(dir)
			if err != nil {
				b.Fatal(err)
			}
			s := New(d)
			for _, k := range keys {
				if _, ok := s.Get(k); !ok {
					b.Fatalf("%s missed", k.ID())
				}
			}
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := s.Get(keys[i%len(keys)]); !ok {
					b.Fatal("store miss")
				}
			}
		})
	}
}
