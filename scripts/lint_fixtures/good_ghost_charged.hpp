// Fixture: ghost state charged the two sanctioned ways — by name in
// the class's own footprint audit (the metastateBytes() policy
// convention counts), or via a charged() directive naming the outer
// audit that sums it. Must lint clean.

#ifndef SIEVESTORE_SCRIPTS_LINT_FIXTURES_GOOD_GHOST_CHARGED_HPP
#define SIEVESTORE_SCRIPTS_LINT_FIXTURES_GOOD_GHOST_CHARGED_HPP

#include <cstdint>

#include "cache/ghost_cache.hpp"

namespace fixture {

class AuditedDirectory
{
  public:
    uint64_t metastateBytes() const;

  private:
    cache::GhostCache ghost{1024};
};

// Out-of-line audit: the linter must find it in this file scan.
inline uint64_t
AuditedDirectory::metastateBytes() const
{
    return ghost.memoryBytes();
}

struct ShadowSlot
{
    // No audit of its own: the embedding policy sums every slot.
    // sieve-lint: charged(summed by AuditedDirectory::metastateBytes)
    cache::GhostCache ghost{512};
};

} // namespace fixture

#endif // SIEVESTORE_SCRIPTS_LINT_FIXTURES_GOOD_GHOST_CHARGED_HPP
