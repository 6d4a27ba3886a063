//go:build amd64 && !race

package sparse

// codecAsm: the kernels' fast paths are in quant_amd64.s, which states their contracts.
const codecAsm = true

//go:noescape
func quantizeINT8SSE2(dst []byte, vals, res []float32) bool

//go:noescape
func dequantizeINT8SSE2(dst []float32, src []byte)

//go:noescape
func quantizeFP16SSE2(dst []byte, vals, res []float32) int

//go:noescape
func dequantizeFP16SSE2(dst []float32, src []byte) int
