// Stable identifiers for the scheduling engines that ship with the library.
//
// `Method` is the compact enum downstream code passes to the façade; the
// authoritative mapping from enum value to engine (name, alias, factory)
// lives in the EngineRegistry (registry.h) — there is deliberately no switch
// over this enum anywhere else.  Engines registered at runtime extend the
// registry without extending this enum; they are addressed by name.
#pragma once

#include <array>

namespace respect {

/// The single definition of the built-in method list.  The enum and
/// kAllMethods are both generated from it, so adding a method here keeps
/// them in sync by construction — and the registry test asserting every
/// kAllMethods entry is registered then catches a missing adapter.
///
///   kRespectRl        the paper's contribution
///   kExactIlp         exact method (CPLEX role): exact::SolveExact
///   kEdgeTpuCompiler  commercial-compiler substitute (count + profiling)
///   kGreedyBalance    balanced contiguous partition of the default order
#define RESPECT_METHOD_LIST(X) \
  X(kRespectRl)                \
  X(kExactIlp)                 \
  X(kEdgeTpuCompiler)          \
  X(kListScheduling)           \
  X(kHuLevel)                  \
  X(kForceDirected)            \
  X(kAnnealing)                \
  X(kGreedyBalance)

/// Scheduling engines available through the façade.
enum class Method {
#define RESPECT_METHOD_ENUMERATOR(name) name,
  RESPECT_METHOD_LIST(RESPECT_METHOD_ENUMERATOR)
#undef RESPECT_METHOD_ENUMERATOR
};

/// Every built-in method, in registry order.
inline constexpr std::array kAllMethods = {
#define RESPECT_METHOD_VALUE(name) Method::name,
    RESPECT_METHOD_LIST(RESPECT_METHOD_VALUE)
#undef RESPECT_METHOD_VALUE
};

}  // namespace respect
