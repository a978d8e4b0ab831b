/**
 * @file
 * Request/response types for the serve subsystem.
 *
 * A Request names one unit of work from any of the repo's analysis
 * pipelines — simulate (the lab job machinery), verify (static
 * Table-1 conformance), scan (whole-binary discovery), chaos (the
 * fault-injection equivalence oracle) or proof (symbolic translation
 * validation) — plus service metadata: a virtual arrival time, an
 * optional deadline and a client id. The payload reuses lab::Job
 * verbatim, so a simulate request is exactly a lab matrix job and the
 * canonical request key is content-addressed the same way job keys
 * are: two requests with equal keys are referentially transparent
 * (identical outcomes), which is what makes coalescing and the hot
 * cache sound.
 */

#ifndef LIQUID_SERVE_REQUEST_HH
#define LIQUID_SERVE_REQUEST_HH

#include <cstdint>
#include <string>

#include "lab/spec.hh"

namespace liquid::serve
{

/** The request classes the server accepts. */
enum class RequestClass : std::uint8_t
{
    Simulate,  ///< run a lab::Job on the simulator
    Verify,    ///< static Table-1 + depcheck verdicts for a workload
    Scan,      ///< hint-less whole-binary region discovery
    Chaos,     ///< equivalence oracle under a fault schedule
    Proof,     ///< symbolic translation validation
};

inline constexpr RequestClass allRequestClasses[] = {
    RequestClass::Simulate, RequestClass::Verify, RequestClass::Scan,
    RequestClass::Chaos, RequestClass::Proof,
};

/** Canonical class name: "simulate", "verify", ... */
const char *className(RequestClass cls);

/** One unit of service work. */
struct Request
{
    RequestClass cls = RequestClass::Simulate;
    /**
     * The work payload. Simulate/chaos use every field (chaos reads
     * its fault schedule from job.over.faults); verify/scan/proof use
     * workload and width. job.experiment is by convention "serve".
     */
    lab::Job job;
    /** Virtual arrival time (loadgen); unused by the live server. */
    std::uint64_t arrivalUs = 0;
    /** Latency budget after arrival; 0 = none. A request still queued
     *  when the budget lapses is cancelled, never executed. */
    std::uint64_t deadlineUs = 0;
    /** Trace position (loadgen) / submission ticket (server). */
    std::uint64_t id = 0;

    /**
     * Content-addressed identity, e.g. "simulate:serve/fir/liquid/w8"
     * — equal keys promise equal responses. Arrival, deadline and id
     * are service metadata and deliberately not part of it.
     */
    std::string key() const;
};

/** How a request left the server. */
enum class ResponseStatus : std::uint8_t
{
    Ok,         ///< executed (or served from cache/coalescing)
    Cancelled,  ///< deadline lapsed before service began
    Rejected,   ///< queue at capacity on arrival
    Failed,     ///< the backend raised an error
};

const char *statusName(ResponseStatus status);

/** Where an Ok response's payload came from. */
enum class ResponseSource : std::uint8_t
{
    Executed,   ///< backend ran the work
    HotCache,   ///< in-memory hot tier
    ColdCache,  ///< on-disk content-addressed result cache
    Coalesced,  ///< attached to an identical in-flight request
    None,       ///< no payload (cancelled/rejected/failed)
};

const char *sourceName(ResponseSource source);

/** What the server returns for one request. */
struct Response
{
    ResponseStatus status = ResponseStatus::Ok;
    ResponseSource source = ResponseSource::None;
    /**
     * Deterministic fingerprint of the full result payload (fnv1a of
     * its canonical serialization). Responses to identical requests
     * are bit-identical, so their digests are equal — the coalescing
     * and cache tests key on this.
     */
    std::uint64_t digest = 0;
    /**
     * Deterministic service demand in abstract work units (simulated
     * cycles, retired instructions or analysis size depending on the
     * class) — the virtual-time service model divides this by
     * unitsPerUs to get a service duration.
     */
    std::uint64_t workUnits = 0;
    /** One-line human-readable result summary. */
    std::string summary;
    /** Failure diagnostics when status == Failed. */
    std::string error;

    bool ok() const { return status == ResponseStatus::Ok; }
};

} // namespace liquid::serve

#endif // LIQUID_SERVE_REQUEST_HH
