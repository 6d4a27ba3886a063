//go:build !amd64 || race

package sparse

const codecAsm = false

func quantizeINT8SSE2([]byte, []float32, []float32) bool { panic("sparse: no codec assembly") }
func dequantizeINT8SSE2([]float32, []byte)               { panic("sparse: no codec assembly") }
func quantizeFP16SSE2([]byte, []float32, []float32) int  { panic("sparse: no codec assembly") }
func dequantizeFP16SSE2([]float32, []byte) int           { panic("sparse: no codec assembly") }
