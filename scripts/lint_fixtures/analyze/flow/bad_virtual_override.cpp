/**
 * sieve-flow fixture: the sink sits on the interface's pure-virtual
 * declaration (the AllocationPolicy::onMiss shape) and measured
 * latency reaches an UNANNOTATED override through a derived-typed
 * receiver. The override inherits the contract, so the call is a
 * violation reported with the full source -> assignment -> sink path.
 */

struct AllocationPolicy {
    /** Decision surface, declared once on the interface. */
    virtual SIEVE_TAINT_SINK int onMiss(unsigned long block) = 0;
};

struct LatencyAwarePolicy : AllocationPolicy {
    /** Override without an annotation of its own. */
    int onMiss(unsigned long block) override { return block & 1; }
};

struct Device {
    /** Pretend measured completion latency. */
    SIEVE_TAINT_SOURCE unsigned long lastLatencyNs();
};

struct RequestLoop {
    Device device;
    LatencyAwarePolicy policy;

    void
    bad()
    {
        unsigned long ns = device.lastLatencyNs();
        unsigned long key = ns / 1000;
        policy.onMiss(key); // analyze-expect: taint-flow
    }
};
