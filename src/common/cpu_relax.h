// Copyright (c) 2026 The planar Authors. Licensed under the MIT license.
//
// Spin-wait pause hint. Every busy-wait in src/ pauses through CpuRelax()
// (enforced by the cpu-relax-via-common repo lint), so the architecture
// switch below is the only place that names a pause instruction.

#ifndef PLANAR_COMMON_CPU_RELAX_H_
#define PLANAR_COMMON_CPU_RELAX_H_

namespace planar {

/// Tells the core the caller is in a spin-wait loop: on x86 `pause`
/// (yields pipeline resources to a sibling hyperthread and avoids the
/// memory-order mis-speculation flush on loop exit), on AArch64
/// `yield`. Elsewhere a no-op. Never blocks or enters the kernel.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  __asm__ __volatile__("yield" ::: "memory");
#endif
}

}  // namespace planar

#endif  // PLANAR_COMMON_CPU_RELAX_H_
