//go:build amd64 && !noasm

package cpufeat

// cpuidex and xgetbv are implemented in cpufeat_amd64.s.

// cpuidex executes CPUID with the given EAX/ECX inputs.
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads XCR0 (requires OSXSAVE, checked by the caller).
func xgetbv() (eax, edx uint32)

func detectAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set: the OS restores
	// YMM registers across context switches.
	xeax, _ := xgetbv()
	if xeax&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func detectAVX512() bool {
	// XCR0 bits 5 (opmask), 6 (ZMM_Hi256) and 7 (Hi16_ZMM) must be set:
	// the OS restores the full AVX-512 register state. AVX2FMA already
	// verified OSXSAVE, so xgetbv is safe to execute.
	xeax, _ := xgetbv()
	const avx512State = 0xe0
	if xeax&avx512State != avx512State {
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const (
		avx512fBit  = 1 << 16
		avx512dqBit = 1 << 17
		avx512bwBit = 1 << 30
		avx512vlBit = 1 << 31
	)
	const need = avx512fBit | avx512dqBit | avx512bwBit | avx512vlBit
	return ebx7&need == need
}
