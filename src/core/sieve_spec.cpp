#include "core/sieve_spec.hpp"

#include "core/rand_sieve.hpp"
#include "core/unsieved.hpp"
#include "util/logging.hpp"

namespace sievestore {
namespace core {

const char *
sieveKindName(SieveKind kind)
{
    switch (kind) {
      case SieveKind::Aod: return "AOD";
      case SieveKind::Wmna: return "WMNA";
      case SieveKind::SieveStoreC: return "SieveStore-C";
      case SieveKind::RandSieveC: return "RandSieve-C";
      case SieveKind::Adaptive: return "SieveStore-C/adaptive";
    }
    util::fatal("sieveKindName: unknown sieve kind %d",
                static_cast<int>(kind));
}

std::unique_ptr<AllocationPolicy>
makeSievePolicy(const SievePolicySpec &spec)
{
    switch (spec.kind) {
      case SieveKind::Aod:
        return std::make_unique<AodPolicy>();
      case SieveKind::Wmna:
        return std::make_unique<WmnaPolicy>();
      case SieveKind::SieveStoreC:
        return std::make_unique<SieveStoreCPolicy>(spec.sieve_c);
      case SieveKind::RandSieveC:
        return std::make_unique<RandSieveCPolicy>(spec.rand_probability,
                                                  spec.rand_seed);
      case SieveKind::Adaptive:
        return std::make_unique<AdaptiveSievePolicy>(spec.adaptive);
    }
    util::fatal("makeSievePolicy: unknown sieve kind %d",
                static_cast<int>(spec.kind));
}

} // namespace core
} // namespace sievestore
