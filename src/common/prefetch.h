/// \file prefetch.h
/// \brief Software prefetch hint, compiled out on toolchains without
/// __builtin_prefetch. Used by the alias-table batch resolution, where the
/// next access's address is known a few iterations ahead but the hardware
/// prefetcher cannot see it through the index indirection.

#ifndef ALIGRAPH_COMMON_PREFETCH_H_
#define ALIGRAPH_COMMON_PREFETCH_H_

#if defined(__GNUC__) || defined(__clang__)
/// Read prefetch with high temporal locality into all cache levels.
#define ALIGRAPH_PREFETCH(addr) __builtin_prefetch((addr), 0, 3)
#else
#define ALIGRAPH_PREFETCH(addr) ((void)sizeof(addr))
#endif

#endif  // ALIGRAPH_COMMON_PREFETCH_H_
