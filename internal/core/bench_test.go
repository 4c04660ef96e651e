package core

import (
	"testing"

	"aim/internal/model"
	"aim/internal/vf"
)

// BenchmarkCompileStage times the AIM-stage cold compile — LHR, WDS
// and the HR-aware SA mapper — that every plan key the server has not
// seen pays, on the two networks the compile-restart workload serves.
func BenchmarkCompileStage(b *testing.B) {
	for _, name := range []string{"resnet18", "mobilenetv2"} {
		b.Run(name, func(b *testing.B) {
			net, err := model.ByName(name, seed)
			if err != nil {
				b.Fatal(err)
			}
			p := NewPipeline(vf.Sprint)
			b.ReportAllocs()
			for b.Loop() {
				p.CompileStage(net, StageBooster)
			}
		})
	}
}
