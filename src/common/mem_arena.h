#ifndef SQUID_COMMON_MEM_ARENA_H_
#define SQUID_COMMON_MEM_ARENA_H_

/// \file mem_arena.h
/// \brief What the engine does about memory placement, stated as a
/// constant: nothing. Every structure lives on the ordinary heap (plain
/// vectors; StringPool's strings in heap chunks), no block asks for
/// hugepages, and no probe loop prefetches. Nothing in the library reads
/// this; it exists only so the end-to-end benchmark's configuration line
/// keeps printing these three fields, and goes away with that line.

#include <cstddef>

namespace squid {

/// \brief The engine's fixed memory settings.
struct MemConfig {
  int hugepages = 0;             ///< 0: no block requests hugepages
  size_t prefetch_distance = 0;  ///< no software prefetch anywhere
  size_t prefetch_window = 1;    ///< every batched probe is a plain loop
};

/// The constant settings above. There is no setter and no environment
/// variable.
inline const MemConfig& GlobalMemConfig() {
  static const MemConfig config;
  return config;
}

}  // namespace squid

#endif  // SQUID_COMMON_MEM_ARENA_H_
