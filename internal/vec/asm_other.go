//go:build !amd64 || purego

package vec

import "runtime"

// Non-amd64 hosts, and any host built with the purego tag, run the pure-Go
// register-blocked kernels on every tier.

const haveAVX2FMA = false
const haveAVX512 = false

func installASMKernels() {}

// codeVariants: no assembly code tiers here.
func codeVariants() map[string]kernelSet { return nil }

// Vectorized reports whether tier l runs assembly batch kernels: never here.
func Vectorized(Level) bool { return false }

func bestLevelForHost() Level {
	if runtime.GOARCH == "arm64" {
		// Wide NEON-class cores: the 16-wide unrolled Go tier wins.
		return LevelAVX512
	}
	return LevelSSE
}
