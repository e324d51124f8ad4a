/**
 * @file
 * Host wall time of real CloudMonatt operations on four workloads.
 *
 * Drives a real core::Cloud through its public API: every RSA
 * operation, quote, secure-channel record and journal write is
 * computed. One run of this program measures one workload:
 *
 *   1. set-up, repeated: construct the cloud (identity keygen for every
 *      entity), provision it and launch the workload's initial VMs;
 *      setup_s is the median;
 *   2. warm-up and the correctness gate: a fixed number of ops whose
 *      verified report bytes are hashed into the workload digest;
 *   3. the timed region: ops for --seconds of host wall time, fresh
 *      fleets built inside it (launch_replicated, attest_lossy) and the
 *      reference work (HostSpeed) not counted;
 *   4. the gate again on a fresh cloud at pool width 1, whose digest
 *      must equal the one from step 2.
 *
 * An op is one attestation request (attest_* workloads) or one VM
 * launch (launch_replicated). On attest_lossy the customer tries an
 * attestation again when a try ends Unreachable or Failed, and a
 * Degraded report answers the op. The times it reports (setup_s, ops_per_s, op_p50_ms,
 * op_p99_ms) are host wall time at the reference host speed (see
 * HostSpeed); the raw wall figures come with them. The program prints
 * one JSON object.
 * Built with PERFBENCH_TRACED (and the layer wrappers), it also
 * reports per-layer counts and self times over the timed region and
 * writes the kept spans as a Chrome trace-event file.
 *
 * The compute pool is min(4, nproc) threads wide.
 *
 * Usage: perfbench_e2e --workload <name> --seed <n> --seconds <s>
 *                      [--trace-out <file>]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/cloud.h"
#include "crypto/sha256.h"
#include "sim/fault_plan.h"
#include "workloads/services.h"
#include "trace.h"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

using namespace monatt;
using namespace monatt::core;

namespace
{

using Clock = std::chrono::steady_clock;
constexpr bool kTraced = PERFBENCH_TRACED;

/** Ops in the correctness gate (and the digest). */
constexpr int kGateOps = 16;
/** Set-ups per run after one warm-up set-up; setup_s is their median. */
constexpr int kSetups = 9;
/** The reference work is timed every kReferenceEvery seconds of the
 * timed region, and kSetupReferences times before each set-up. */
constexpr double kReferenceEvery = 0.05;
constexpr int kSetupReferences = 8;
/** A time is rescaled by the median reference time within this many
 * seconds of it. */
constexpr double kReferenceWindow = 0.5;
/** The reference work's time at the reference host speed: about its
 * fastest on a 4-vCPU VM with g++ 12 -O2. */
constexpr double kReferenceMs = 0.40;
/** Tries per op on attest_lossy. */
constexpr int kMaxAttempts = 4;
/** Simulated time after which an op counts as timed out. */
constexpr SimTime kOpTimeout = seconds(600);

enum class Kind
{
    AttestClosed,
    AttestOpenFresh,
    LaunchReplicated,
    AttestLossy,
};

struct Workload
{
    const char *name;
    Kind kind;
    int servers;
    int initialVms;
    /** Ops of the timed region behind the outcome metrics; a 25 s run
     * completes two to nine times as many on a 4-core host. */
    std::uint64_t outcomeOps;
};

constexpr Workload kWorkloads[] = {
    {"attest_closed", Kind::AttestClosed, 4, 4, 1000},
    {"attest_open_fresh", Kind::AttestOpenFresh, 8, 16, 800},
    {"launch_replicated", Kind::LaunchReplicated, 4, 0, 2000},
    {"attest_lossy", Kind::AttestLossy, 4, 8, 2000},
};

/**
 * Seeded Poisson arrival rate of attest_open_fresh, per simulated
 * second. With about 2.6 simulated seconds per attestation, some 8 are
 * in flight, and an arrival finds all 16 VMs busy about 0.3% of the
 * time (at 4 per second, 4%, which reached sim_op_p99_ms).
 */
constexpr double kOpenRatePerSimSecond = 3.0;
/** Launches into each empty fleet on launch_replicated. */
constexpr int kLaunchesPerFleet = 64;
/**
 * Fan-out rounds per fleet on attest_lossy. Under loss a fleet drifts,
 * on some seeds, into more and more Degraded outcomes as it ages, so a
 * fixed wall duration would measure a state that depends on host
 * speed. A fresh fleet every few rounds keeps every run in the young,
 * steady part, at fixed op counts.
 */
constexpr int kLossyRoundsPerFleet = 16;
/** Requests per fan-out round on attest_lossy. All are due when the
 * round starts and go out at seeded offsets within kLossySpread, the
 * customer's send spread; simulated latency counts from the due time. */
constexpr int kLossyFanOut = 8;
constexpr SimTime kLossySpread = msec(100);
/**
 * Datagram loss on attest_lossy. At 5% the 30 s retransmission mode
 * holds about 1% of the ops, so p99 jumps between the 15-20 s and the
 * 30 s modes from seed to seed; at 7% p99 lies inside the 30 s mode.
 */
constexpr double kLossyDropRate = 0.07;
/**
 * Seeded one-way jitter on attest_closed. Its one request in flight
 * has nothing else to vary, so without jitter every seed gives the
 * same simulated latency. The jitter stays far below every
 * retransmission timeout and is kept off the workloads that put
 * several datagrams on one link at once, because reordered
 * secure-channel records are dropped.
 */
constexpr SimTime kClosedJitter = usec(200);
/** launch_replicated draws each image size from this range (MB), so
 * spawn time, and with it simulated latency, depends on the seed. */
constexpr std::uint64_t kImageMbMin = 16;
constexpr std::uint64_t kImageMbMax = 1024;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
secondsSince(Clock::time_point a)
{
    return std::chrono::duration<double>(Clock::now() - a).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** Peak resident set of this process (VmHWM). getrusage's ru_maxrss
 * would also count a parent's peak inherited across fork and exec. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0;
    char line[256];
    double kb = 0;
    while (std::fgets(line, sizeof line, f))
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    std::fclose(f);
    return kb / 1024.0;
}

/** Nearest-rank percentile of an unsorted sample. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/**
 * A fixed piece of the benchmark's own work, shaped like the
 * simulation's: a heap of timed events whose callbacks capture a
 * string, bump a hash-map entry and schedule the next event, 2000
 * events in all. It calls nothing of the program. Code of this shape
 * slows with the host as the program does; tight arithmetic loops
 * slow less (see record.json). @return Its host wall time in ms.
 */
double
referenceWorkMs()
{
    struct Event
    {
        std::uint64_t at, seq;
        std::function<void()> run;
    };
    struct Later
    {
        bool operator()(const Event &a, const Event &b) const
        {
            return a.at != b.at ? a.at > b.at : a.seq > b.seq;
        }
    };
    const Clock::time_point t0 = Clock::now();
    std::priority_queue<Event, std::vector<Event>, Later> queue;
    std::unordered_map<std::string, std::uint64_t> state;
    std::uint64_t seq = 0, now = 0, acc = 0, x = 88172645463325252ULL;
    const auto next = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    std::function<void(int)> schedule = [&](int depth) {
        const std::string key = "vm-" + std::to_string(next() % 64);
        queue.push({now + next() % 1000, seq++, [&, key, depth] {
                        acc += ++state[key];
                        if (depth > 0)
                            schedule(depth - 1);
                    }});
    };
    for (int i = 0; i < 200; ++i)
        schedule(8);
    while (!queue.empty()) {
        // top() is const; the moved-from event is popped right away.
        Event ev = std::move(const_cast<Event &>(queue.top()));
        queue.pop();
        now = ev.at;
        ev.run();
    }
    asm volatile("" : : "r"(acc) : "memory"); // keep the work
    return msBetween(t0, Clock::now());
}

/** Median reference time over `count` runs of the reference work. */
double
referenceMs(int count)
{
    std::vector<double> ms;
    for (int i = 0; i < count; ++i)
        ms.push_back(referenceWorkMs());
    return percentile(ms, 0.5);
}

/**
 * Host speed over the timed region. On a shared host the same code
 * runs up to 1.7x slower for seconds to minutes at a time, so host
 * wall time read alone moved by more between two runs of one build
 * than any bound worth gating. The reference work slows with it, so a
 * time t taken where the reference took r ms is reported as
 * t * kReferenceMs / r: host wall time at the reference host speed.
 * The reference calls nothing of the program, so a change to the
 * program moves the rescaled times as it moves the wall times.
 */
class HostSpeed
{
  public:
    /** Time the reference work at timed-region second `at`. */
    void sample(double at) { samples.emplace_back(at, referenceWorkMs()); }

    /** The factor that takes a wall time near second `at` to the
     * reference speed. */
    double scaleAt(double at) const
    {
        if (samples.empty())
            return 1;
        auto lo = std::lower_bound(
            samples.begin(), samples.end(),
            std::make_pair(at - kReferenceWindow, 0.0));
        auto hi = std::upper_bound(
            lo, samples.end(),
            std::make_pair(at + kReferenceWindow,
                           std::numeric_limits<double>::infinity()));
        if (lo == hi) { // no sample that near: the next one, or the last
            if (lo == samples.end())
                --lo;
            hi = lo + 1;
        }
        std::vector<double> ms;
        for (auto it = lo; it != hi; ++it)
            ms.push_back(it->second);
        return kReferenceMs / percentile(ms, 0.5);
    }

    /** Seconds 0 to `end` of the timed region at the reference speed. */
    double scaledSeconds(double end) const
    {
        double total = 0;
        for (std::size_t i = 0; i < samples.size(); ++i) {
            const double from = samples[i].first;
            const double to =
                i + 1 < samples.size() ? samples[i + 1].first : end;
            total += std::max(0.0, std::min(to, end) - from) * scaleAt(from);
        }
        return total;
    }

  private:
    std::vector<std::pair<double, double>> samples; //!< (second, ms)
};

/** True when the report appraises every requested property. The
 * verdicts themselves (a covert-channel false positive included) are
 * the system's output and go into the digest. */
bool
coversEveryProperty(const proto::AttestationReport &report)
{
    for (proto::SecurityProperty p : proto::allProperties())
        if (!report.find(p))
            return false;
    return report.results.size() == proto::allProperties().size();
}

/** One op from issue to terminal outcome. */
struct Op
{
    std::uint64_t requestId = 0;
    std::string vid; //!< Attestation target; the launched vid after.
    SimTime simDue = 0; //!< When the op was due; simulated latency base.
    double issuedS = 0; //!< Timed-region seconds at issue.
    int attempts = 1;
    bool ok = false; //!< Answered: Verified, or Degraded under loss.
    bool degraded = false;
    double wallMs = 0;
    double simMs = 0;
    double doneS = 0; //!< Timed-region seconds at its end.
};

/** Counters summed over every entity of a cloud. */
struct FleetCounters
{
    std::uint64_t events = 0;
    std::uint64_t datagrams = 0;
    std::uint64_t bytes = 0;
    std::uint64_t faultDrops = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t forwardRetries = 0;
    std::uint64_t failovers = 0;
    std::uint64_t certHits = 0;
    std::uint64_t certMisses = 0;
};

constexpr std::uint64_t FleetCounters::*kCounterFields[] = {
    &FleetCounters::events,         &FleetCounters::datagrams,
    &FleetCounters::bytes,          &FleetCounters::faultDrops,
    &FleetCounters::retransmits,    &FleetCounters::forwardRetries,
    &FleetCounters::failovers,      &FleetCounters::certHits,
    &FleetCounters::certMisses,
};

FleetCounters
operator+(FleetCounters a, const FleetCounters &b)
{
    for (auto field : kCounterFields)
        a.*field += b.*field;
    return a;
}

FleetCounters
operator-(FleetCounters a, const FleetCounters &b)
{
    for (auto field : kCounterFields)
        a.*field -= b.*field;
    return a;
}

/** A cloud plus the workload state that drives it. */
class Fleet
{
  public:
    /** `keyVariant` 0 is the measured fleet; other values give the
     * cloud fixed key material of their own, for extra set-up samples
     * that do the same work in every run. */
    Fleet(const Workload &w, std::uint64_t seed, std::size_t threads,
          std::uint64_t keyVariant = 0)
        : workload(w), rng(seed * 0x9E3779B97F4A7C15ULL + 7), planSeed(seed)
    {
        CloudConfig cfg;
        cfg.seed = keyVariant == 0 ? 20150613 + seed
                                   : 0x5E7C0000ULL + keyVariant;
        cfg.numServers = w.servers;
        cfg.computeThreads = threads;
        if (w.kind == Kind::AttestOpenFresh)
            cfg.enableAttestationCaches = false;
        if (w.kind == Kind::LaunchReplicated)
            cfg.controllerReplicas = 3;
        if (w.kind == Kind::AttestLossy)
            cfg.numAttestationServers = 2;
        buildCloud(cfg);
    }

    /** Run `count` more ops (warm-up and the gate). */
    void runCount(int count)
    {
        hashing = true;
        issueLimit = issued + count;
        while (issued < issueLimit || !outstanding.empty())
            if (!advance())
                break;
    }

    /** Run ops until `wallSeconds` of host time passed (the benchmark's
     * own work in it too), then drain; time the reference work every
     * kReferenceEvery throughout. */
    void runFor(double wallSeconds)
    {
        hashing = false;
        timedStart = Clock::now();
        excludedSeconds = excludedCpuSeconds = 0;
        issueLimit = std::numeric_limits<int>::max();
        double nextReference = 0;
        for (;;) {
            const double elapsed = secondsSince(timedStart);
            const double now = elapsed - excludedSeconds;
            if (now >= nextReference) {
                excluded([&] { speed.sample(now); });
                nextReference = now + kReferenceEvery;
            }
            if (elapsed >= wallSeconds)
                issueLimit = issued;
            if (issued >= issueLimit && outstanding.empty())
                break;
            if (!advance())
                break;
        }
    }

    /** Host time since runFor started, without the benchmark's own
     * work in it (fresh-fleet builds, reference work). */
    double timedSeconds() const
    {
        return secondsSince(timedStart) - excludedSeconds;
    }

    /** Drop per-op records (after the gate) but keep the digest. */
    void clearOps()
    {
        ops.clear();
        failedOps = 0;
        failedAttempts = 0;
        degradedOps = 0;
        backlog.clear();
        backgroundUs = 0;
    }

    /** Counters of every fleet so far, fresh-fleet set-ups excluded. */
    FleetCounters counters() const { return retired + (current() - built); }

    std::string digestHex()
    {
        crypto::Sha256 h;
        h.update(gateEvidence);
        return toHex(h.digest());
    }
    const std::vector<Op> &allOps() const { return ops; }
    std::uint64_t failed() const { return failedOps; }
    /** Tries that failed, the op's last one or not. */
    std::uint64_t failedTries() const { return failedAttempts; }
    std::uint64_t degraded() const { return degradedOps; }
    /** Open loop: true when the backlog did not grow. */
    bool backlogSteady() const;
    double backgroundUs = 0; //!< Traced: steps with no wrapped call.
    /** Host wall and CPU time of the benchmark's own work inside the
     * timed region, which is not part of it. */
    double excludedSeconds = 0;
    double excludedCpuSeconds = 0;
    /** Fresh-fleet builds: (timed-region second, wall seconds); each is
     * also a set-up sample. */
    std::vector<std::pair<double, double>> renewals;
    HostSpeed speed;

  private:
    /** Run `work`, keeping its wall and CPU time out of the timed
     * region. */
    template <typename Fn>
    void excluded(Fn &&work)
    {
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = cpuSeconds();
        work();
        excludedSeconds += secondsSince(t0);
        excludedCpuSeconds += cpuSeconds() - cpu0;
    }

    /** Issue what the workload wants now, then run one event.
     * @return False when the simulation has nothing left to run. */
    bool advance();
    bool step();
    const std::string *pickIdleVm();
    void issueAttest(const std::string &vid, SimTime due);
    void issueLaunch();
    void scheduleIssue(SimTime delay, SimTime due);
    void collectAttests();
    void settle(std::uint64_t key, bool ok,
                const std::function<Bytes()> &evidence, bool last = false);
    void expireTimedOut();
    void renewFleet();
    void buildCloud(const CloudConfig &cfg);
    FleetCounters current() const;

    const Workload &workload;
    std::mt19937_64 rng;
    std::uint64_t planSeed;
    std::unique_ptr<Cloud> cloud;
    Customer *customer = nullptr;
    std::vector<std::string> vids;
    std::map<std::string, int> busy; //!< Attestations in flight per VM.
    /** Open loop: due times of arrivals that found every VM busy. */
    std::deque<SimTime> waiting;

    std::vector<Op> ops;
    std::unordered_map<std::uint64_t, std::size_t> outstanding; // id→op
    int issued = 0;
    int issueLimit = 0;
    std::uint64_t failedOps = 0;
    std::uint64_t failedAttempts = 0;
    std::uint64_t degradedOps = 0;
    std::size_t seenReports = 0;
    std::uint64_t seenFailures = 0;
    int scheduled = 0; //!< Issue events not yet run.
    Clock::time_point timedStart = Clock::now();
    int opsInFleet = 0; //!< Launches or fan-out rounds.
    int generation = 0; //!< Fresh fleets built so far.
    SimTime nextTimeoutCheck = 0;
    FleetCounters retired; //!< Of the fleets already replaced.
    FleetCounters built; //!< Of the current fleet when it was built.
    /** Ops in flight or waiting, as each arrival found them. */
    std::vector<std::size_t> backlog;
    /** Only the gate feeds the digest. Its evidence is hashed after
     * the gate, so no benchmark-side hashing runs while spans are
     * recorded. */
    bool hashing = false;
    Bytes gateEvidence;
};

/** Counters of the current cloud alone, since it was constructed. */
FleetCounters
Fleet::current() const
{
    FleetCounters c;
    Cloud &cl = *cloud;
    c.events = cl.events().executed();
    const auto &net = cl.network().stats();
    c.datagrams = net.sent;
    c.bytes = net.bytesSent;
    c.faultDrops = net.droppedByFault;
    c.retransmits = customer->stats().requestRetries;
    auto &fabric = cl.controllerFabric();
    for (std::size_t i = 0; i < fabric.numNodes(); ++i) {
        const auto &s = fabric.node(i).stats();
        c.forwardRetries += s.forwardRetries;
        c.failovers += s.failovers;
    }
    c.retransmits += c.forwardRetries;
    for (std::size_t i = 0; i < cl.numAttestationServers(); ++i) {
        const auto &s = cl.attestationServer(i).stats();
        c.retransmits += s.measureRetries;
        c.certHits += s.certCacheHits;
        c.certMisses += s.certCacheMisses;
    }
    return c;
}

bool
Fleet::advance()
{
    const bool mayIssue = issued < issueLimit;
    switch (workload.kind) {
    case Kind::AttestClosed:
        if (outstanding.empty() && mayIssue)
            issueAttest(*pickIdleVm(), cloud->events().now());
        break;
    case Kind::AttestOpenFresh:
        while (!waiting.empty() && issued < issueLimit) {
            const std::string *vid = pickIdleVm();
            if (!vid)
                break;
            issueAttest(*vid, waiting.front());
            waiting.pop_front();
        }
        if (scheduled == 0 && mayIssue) {
            std::exponential_distribution<double> gap(kOpenRatePerSimSecond);
            const auto delay = std::max<SimTime>(
                1, static_cast<SimTime>(1e6 * gap(rng)));
            scheduleIssue(delay, cloud->events().now() + delay);
        }
        break;
    case Kind::LaunchReplicated:
        if (outstanding.empty() && mayIssue) {
            if (opsInFleet == kLaunchesPerFleet)
                renewFleet();
            issueLaunch();
        }
        break;
    case Kind::AttestLossy:
        if (outstanding.empty() && scheduled == 0 && mayIssue) {
            if (opsInFleet == kLossyRoundsPerFleet)
                renewFleet();
            ++opsInFleet;
            std::uniform_int_distribution<SimTime> offset(0, kLossySpread);
            for (int i = 0; i < kLossyFanOut; ++i)
                scheduleIssue(offset(rng), cloud->events().now());
        }
        break;
    }
    if (outstanding.empty() && scheduled == 0)
        return mayIssue;
    return step();
}

/**
 * A seeded choice among the VMs with no attestation in flight, or null
 * when every VM has one. Two overlapping runtime windows on one VM
 * split its usage samples, and the appraiser then returns Unknown, so
 * the workloads avoid them.
 */
const std::string *
Fleet::pickIdleVm()
{
    std::vector<const std::string *> idle;
    for (const std::string &vid : vids)
        if (busy[vid] == 0)
            idle.push_back(&vid);
    if (idle.empty())
        return nullptr;
    return idle[rng() % idle.size()];
}

void
Fleet::issueAttest(const std::string &vid, SimTime due)
{
    ++busy[vid];
    Op op;
    op.vid = vid;
    op.simDue = due;
    op.issuedS = timedSeconds();
    op.requestId =
        customer->runtimeAttestCurrent(vid, proto::allProperties());
    ++issued;
    if constexpr (kTraced)
        perfbench::trace::setCurrentOp(issued);
    outstanding.emplace(op.requestId, ops.size());
    ops.push_back(std::move(op));
}

void
Fleet::issueLaunch()
{
    const server::VmImage &img = server::image("cirros");
    Op op;
    op.simDue = cloud->events().now();
    op.issuedS = timedSeconds();
    std::uniform_int_distribution<std::uint64_t> sizeMb(kImageMbMin,
                                                        kImageMbMax);
    op.requestId = customer->requestLaunch(
        "vm-" + std::to_string(issued), "cirros", "small",
        proto::allProperties(), img.content, sizeMb(rng));
    ++issued;
    ++opsInFleet;
    if constexpr (kTraced)
        perfbench::trace::setCurrentOp(issued);
    outstanding.emplace(op.requestId, ops.size());
    ops.push_back(std::move(op));
}

/** Issue an attestation, due at `due`, from an event `delay` from now,
 * so the step that runs the event issues the op. */
void
Fleet::scheduleIssue(SimTime delay, SimTime due)
{
    ++scheduled;
    cloud->events().scheduleAfter(
        std::max<SimTime>(delay, 1),
        [this, due] {
            --scheduled;
            if (issued >= issueLimit)
                return;
            backlog.push_back(outstanding.size() + waiting.size());
            // An arrival that finds every VM busy waits for one; its
            // simulated latency still counts from its arrival.
            if (const std::string *vid = pickIdleVm())
                issueAttest(*vid, due);
            else
                waiting.push_back(due);
        },
        "perfbench.issue");
}

/**
 * Construct the cloud, launch the workload's initial VMs (each running
 * the "web" service, whose every property appraises Healthy) and
 * install the workload's wire faults.
 */
void
Fleet::buildCloud(const CloudConfig &cfg)
{
    cloud = std::make_unique<Cloud>(cfg);
    customer = &cloud->addCustomer("bench-customer");
    vids.clear();
    for (int i = 0; i < workload.initialVms; ++i) {
        auto vid = cloud->launchVm(*customer, "vm-" + std::to_string(i),
                                   "cirros", "small", proto::allProperties());
        if (!vid.isOk())
            throw std::runtime_error("initial launch failed: " +
                                     vid.errorMessage());
        server::CloudServer *host = cloud->serverHosting(vid.value());
        host->hypervisor().setBehavior(host->domainOf(vid.value()), 0,
                                       workloads::makeService("web"));
        vids.push_back(vid.take());
    }
    if (workload.kind == Kind::AttestClosed ||
        workload.kind == Kind::AttestLossy) {
        sim::FaultPlanConfig plan;
        plan.seed = (planSeed ^ 0xFA57) + 7919ULL * generation;
        if (workload.kind == Kind::AttestClosed)
            plan.faults.extraDelayMax = kClosedJitter;
        else
            plan.faults.dropProbability = kLossyDropRate;
        plan.activeFrom = cloud->events().now();
        cloud->installFaultPlan(plan);
    }
    seenReports = customer->reports().size();
    seenFailures = 0;
    nextTimeoutCheck = 0;
    built = current();
}

/** A fresh fleet for the next batch of ops. Its set-up is not part of
 * the timed region: neither its time nor its spans or counters. */
void
Fleet::renewFleet()
{
    const bool wasRecording = kTraced && perfbench::trace::isRecording();
    if constexpr (kTraced)
        perfbench::trace::setRecording(false);
    const double at = timedSeconds();
    const double before = excludedSeconds;
    excluded([&] {
        retired = counters();
        CloudConfig cfg = cloud->config();
        cfg.seed += 1000003;
        ++generation;
        cloud.reset();
        busy.clear();
        buildCloud(cfg);
    });
    opsInFleet = 0;
    renewals.emplace_back(at, excludedSeconds - before);
    if constexpr (kTraced)
        perfbench::trace::setRecording(wasRecording);
}

bool
Fleet::step()
{
    sim::EventQueue &eq = cloud->events();
    std::uint64_t spansBefore = 0;
    Clock::time_point t0;
    if constexpr (kTraced) {
        spansBefore = perfbench::trace::spansOnThisThread();
        t0 = Clock::now();
    }
    if (!eq.runOne()) {
        expireTimedOut();
        return false;
    }
    if constexpr (kTraced) {
        if (perfbench::trace::spansOnThisThread() == spansBefore)
            backgroundUs += 1e3 * msBetween(t0, Clock::now());
    }

    if (workload.kind == Kind::LaunchReplicated) {
        if (!outstanding.empty()) {
            const auto [id, index] = *outstanding.begin();
            const LaunchOutcome *out = customer->launchOutcome(id);
            if (out && out->done) {
                const bool ok = out->ok && !out->vid.empty() &&
                                cloud->serverHosting(out->vid) != nullptr;
                ops[index].vid = out->vid;
                const server::CloudServer *host =
                    ok ? cloud->serverHosting(out->vid) : nullptr;
                settle(id, ok, [&] {
                    return toBytes(out->vid + "@" + (host ? host->id() : ""));
                });
            }
        }
    } else {
        collectAttests();
    }
    if (!outstanding.empty() && eq.now() >= nextTimeoutCheck) {
        nextTimeoutCheck = eq.now() + seconds(1);
        for (const auto &[id, index] : outstanding)
            if (eq.now() - ops[index].simDue > kOpTimeout) {
                expireTimedOut();
                break;
            }
    }
    return true;
}

/** Settle attestations that reached a terminal outcome this step. */
void
Fleet::collectAttests()
{
    const auto &reports = customer->reports();
    while (seenReports < reports.size()) {
        const VerifiedReport &r = reports[seenReports++];
        const auto it = outstanding.find(r.requestId);
        if (it == outstanding.end())
            continue;
        Op &op = ops[it->second];
        // Degraded is a verified report with an Unknown verdict in it.
        // On a clean wire it fails the run (see main). Under loss it
        // answers the op, but the op did not end Verified.
        const AttestationOutcome state =
            customer->outcomeFor(r.requestId).state;
        op.degraded = state == AttestationOutcome::Degraded;
        degradedOps += op.degraded;
        const bool ok =
            (state == AttestationOutcome::Verified ||
             (op.degraded && workload.kind == Kind::AttestLossy)) &&
            r.report.vid == op.vid && coversEveryProperty(r.report);
        settle(r.requestId, ok, [&] { return r.report.encode(); });
    }
    const CustomerStats &s = customer->stats();
    const std::uint64_t failures = s.requestsFailed + s.requestsUnreachable;
    if (failures != seenFailures) {
        seenFailures = failures;
        std::vector<std::uint64_t> ended;
        for (const auto &[id, index] : outstanding) {
            const auto state = customer->outcomeFor(id).state;
            if (state == AttestationOutcome::Failed ||
                state == AttestationOutcome::Unreachable)
                ended.push_back(id);
        }
        std::sort(ended.begin(), ended.end());
        for (std::uint64_t id : ended)
            settle(id, false, [] { return toBytes("failed"); });
    }
}

/**
 * Record the end of one try at op `key`. In the gate, hash its sim
 * latency, verdict and `evidence()` (the verified report bytes) into
 * the digest. On attest_lossy a failed try that is not the `last` is
 * tried again at once; otherwise the op is terminal.
 */
void
Fleet::settle(std::uint64_t key, bool ok,
              const std::function<Bytes()> &evidence, bool last)
{
    const auto it = outstanding.find(key);
    const std::size_t index = it->second;
    outstanding.erase(it);
    Op &op = ops[index];
    const SimTime simUs = cloud->events().now() - op.simDue;
    if (hashing) {
        const Bytes verdict =
            toBytes(std::to_string(simUs) + (ok ? ":ok:" : ":fail:"));
        const Bytes bytes = evidence();
        gateEvidence.insert(gateEvidence.end(), verdict.begin(), verdict.end());
        gateEvidence.insert(gateEvidence.end(), bytes.begin(), bytes.end());
    }
    if (!ok)
        ++failedAttempts;
    if (!ok && !last && workload.kind == Kind::AttestLossy &&
        op.attempts < kMaxAttempts) {
        ++op.attempts;
        op.requestId =
            customer->runtimeAttestCurrent(op.vid, proto::allProperties());
        outstanding.emplace(op.requestId, index);
        return;
    }
    if (!op.vid.empty() && workload.kind != Kind::LaunchReplicated)
        --busy[op.vid];
    op.ok = ok;
    op.doneS = timedSeconds();
    op.wallMs = 1e3 * (op.doneS - op.issuedS);
    op.simMs = 1e3 * toSeconds(simUs);
    if (!ok)
        ++failedOps;
}

void
Fleet::expireTimedOut()
{
    std::vector<std::uint64_t> ids;
    for (const auto &[id, index] : outstanding)
        ids.push_back(id);
    std::sort(ids.begin(), ids.end());
    for (std::uint64_t id : ids)
        settle(id, false, [] { return toBytes("timeout"); }, true);
}

bool
Fleet::backlogSteady() const
{
    if (backlog.size() < 8)
        return true;
    const std::size_t half = backlog.size() / 2;
    double first = 0, second = 0;
    for (std::size_t i = 0; i < half; ++i)
        first += static_cast<double>(backlog[i]);
    for (std::size_t i = half; i < 2 * half; ++i)
        second += static_cast<double>(backlog[i]);
    first /= static_cast<double>(half);
    second /= static_cast<double>(half);
    return second <= 1.5 * first + 2.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    std::string traceOut;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload")
            o.workload = value;
        else if (key == "--seed")
            o.seed = std::stoull(value);
        else if (key == "--seconds")
            o.seconds = std::stod(value);
        else if (key == "--trace-out")
            o.traceOut = value;
        else
            throw std::invalid_argument("unknown option " + key);
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    const Workload *w = nullptr;
    for (const Workload &candidate : kWorkloads)
        if (opt.workload == candidate.name)
            w = &candidate;
    if (!w) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    // The pool width is part of the measurement; an inherited override
    // would silently change it.
    unsetenv("MONATT_THREADS");
    const std::size_t threads = std::min<std::size_t>(
        4, std::max(1u, std::thread::hardware_concurrency()));

    namespace tr = perfbench::trace;
    std::vector<std::string> errors;

    // 1. Set-up, repeated. Key generation time depends on the keys, so
    // each repetition gets other key material; the last one, the
    // seed's own fleet, carries on. The first one warms the process up
    // and is not counted. Each is rescaled by the reference time taken
    // just before it. Both lists get the fresh-fleet builds of the
    // timed region too.
    std::vector<double> setups, setupsWall;
    std::unique_ptr<Fleet> fleet =
        std::make_unique<Fleet>(*w, opt.seed, threads, kSetups);
    std::uint64_t setupKeygens = 0;
    for (int i = kSetups - 1; i >= 0; --i) {
        fleet.reset();
        const double scale = kReferenceMs / referenceMs(kSetupReferences);
        const std::uint64_t keygensBefore = tr::callsAlways(tr::RsaKeygen);
        const Clock::time_point t0 = Clock::now();
        fleet = std::make_unique<Fleet>(*w, opt.seed, threads, i);
        setupsWall.push_back(secondsSince(t0));
        setups.push_back(setupsWall.back() * scale);
        setupKeygens = tr::callsAlways(tr::RsaKeygen) - keygensBefore;
    }

    // 2. Warm-up plus the gate. On attest_closed the first round over
    // every VM fills the AIK sessions and the certificate cache. The
    // traced binary records spans here, so the digest it compares with
    // the untraced one covers active tracing; the totals are cleared
    // before the timed region.
    if (w->kind == Kind::AttestClosed)
        fleet->runCount(w->initialVms);
    if constexpr (kTraced)
        tr::setRecording(true);
    fleet->runCount(kGateOps);
    if constexpr (kTraced) {
        tr::setRecording(false);
        tr::clearTotals();
    }
    const std::string gateDigest = fleet->digestHex();
    const std::uint64_t gateDegraded = fleet->degraded();
    fleet->clearOps();
    // Memory is sampled before the timed region: the customer keeps
    // every verified report, so a faster build that completes more ops
    // in the timed region would otherwise read as a memory regression.
    const double rssMb = peakRssMb();

    // 3. The timed region. The benchmark's own work inside it (fresh-
    // fleet builds, reference work) is not timed.
    const FleetCounters before = fleet->counters();
    const double cpuBefore = cpuSeconds();
    if constexpr (kTraced)
        tr::setRecording(true);
    fleet->runFor(opt.seconds);
    const double wall = fleet->timedSeconds();
    if constexpr (kTraced)
        tr::setRecording(false);
    const double cpuPerWall =
        (cpuSeconds() - cpuBefore - fleet->excludedCpuSeconds) / wall;
    const FleetCounters after = fleet->counters();

    // The time metrics cover every op of the timed region, each op's
    // wall time rescaled by the host speed around its end. The outcome
    // metrics (simulated latency, verified share) use only its first
    // outcomeOps ops in issue order: the simulation is deterministic,
    // so for a fixed seed they do not depend on how fast the host ran.
    const HostSpeed &speed = fleet->speed;
    std::vector<double> opMs, opWallMs, simMs;
    std::uint64_t attempted = 0, sampled = 0, sampledTries = 0, sampledOk = 0;
    for (const Op &op : fleet->allOps()) {
        ++attempted;
        if (op.ok) {
            opWallMs.push_back(op.wallMs);
            opMs.push_back(op.wallMs * speed.scaleAt(op.doneS));
        }
        if (sampled == w->outcomeOps)
            continue;
        ++sampled;
        sampledTries += op.attempts;
        if (op.ok) {
            sampledOk += !op.degraded;
            simMs.push_back(op.simMs);
        }
    }
    const std::uint64_t failed = fleet->failed();
    const std::uint64_t degraded = fleet->degraded();
    if (attempted == 0)
        errors.push_back("no op attempted");
    if (w->kind == Kind::AttestOpenFresh && !fleet->backlogSteady())
        errors.push_back("open-loop backlog grew");
    // The workloads never send a request to a VM with one in flight, so
    // on a clean wire no runtime windows overlap and Degraded is a
    // defect. Under loss it is recorded: it counts as a failed try.
    if (w->kind != Kind::AttestLossy && degraded + gateDegraded > 0)
        errors.push_back("Degraded outcome on a clean wire");
    const double backgroundUs = fleet->backgroundUs;
    const double failedTries = double(fleet->failedTries());
    const double scaledWall = speed.scaledSeconds(wall);
    for (const auto &[at, seconds] : fleet->renewals) {
        setupsWall.push_back(seconds);
        setups.push_back(seconds * speed.scaleAt(at));
    }
    fleet.reset();

    // 4. The gate again at pool width 1.
    Fleet serial(*w, opt.seed, 1);
    if (w->kind == Kind::AttestClosed)
        serial.runCount(w->initialVms);
    serial.runCount(kGateOps);
    const std::string serialDigest = serial.digestHex();
    if (serialDigest != gateDigest)
        errors.push_back("digest differs between pool width 1 and " +
                         std::to_string(threads));

    const double ops = static_cast<double>(attempted);
    const auto perOp = [&](double v) { return ops > 0 ? v / ops : 0; };

    const auto delta = [&](std::uint64_t FleetCounters::*field) {
        return perOp(static_cast<double>(after.*field - before.*field));
    };
    std::vector<std::pair<std::string, double>> m = {
        {"setup_s", percentile(setups, 0.5)},
        {"ops_per_s", ops / scaledWall},
        {"op_p50_ms", percentile(opMs, 0.50)},
        {"op_p99_ms", percentile(opMs, 0.99)},
        {"sim_op_p50_ms", percentile(simMs, 0.50)},
        {"sim_op_p99_ms", percentile(simMs, 0.99)},
        {"verified_frac",
         sampledTries > 0 ? double(sampledOk) / double(sampledTries) : 0},
        {"peak_rss_mb", rssMb},
        {"samples", double(opMs.size())},
        {"outcome_samples", double(sampled)},
        {"wall.setup_s", percentile(setupsWall, 0.5)},
        {"wall.ops_per_s", ops / wall},
        {"wall.op_p50_ms", percentile(opWallMs, 0.50)},
        {"wall.op_p99_ms", percentile(opWallMs, 0.99)},
        {"host.speed", wall > 0 ? scaledWall / wall : 0},
        {"attestation.failed_tries_per_op", perOp(failedTries)},
        {"net.datagrams_per_op", delta(&FleetCounters::datagrams)},
        {"net.bytes_per_op", delta(&FleetCounters::bytes)},
        {"net.fault_drops_per_op", delta(&FleetCounters::faultDrops)},
        {"net.retransmits_per_op", delta(&FleetCounters::retransmits)},
        {"controller.forward_retries_per_op",
         delta(&FleetCounters::forwardRetries)},
        {"controller.failovers_per_op", delta(&FleetCounters::failovers)},
        {"sim.kernel.events_per_op", delta(&FleetCounters::events)},
        {"sim.worker_pool.cpu_per_wall", cpuPerWall},
    };
    const double certHits = double(after.certHits - before.certHits);
    const double certLookups =
        certHits + double(after.certMisses - before.certMisses);
    m.emplace_back("attestation.cert_cache.hit_ratio",
                   certLookups > 0 ? certHits / certLookups : 0);
    m.emplace_back("attestation.degraded_frac", perOp(double(degraded)));

    if constexpr (kTraced) {
        const auto totals = tr::totals();
        for (int l = 0; l < tr::kLayers; ++l) {
            const auto layer = static_cast<tr::Layer>(l);
            const std::string name = tr::layerName(layer);
            const tr::LayerTotals &t = totals[l];
            if (layer == tr::JournalSync)
                continue;
            if (layer == tr::Journal) {
                const tr::LayerTotals &sync = totals[tr::JournalSync];
                m.emplace_back(name + ".appends_per_op",
                               perOp(double(t.items)));
                m.emplace_back(name + ".syncs_per_op",
                               perOp(double(sync.calls)));
                m.emplace_back(name + ".bytes_per_op",
                               perOp(double(t.bytes)));
                m.emplace_back(name + ".self_us_per_op",
                               perOp(t.selfUs + sync.selfUs));
                continue;
            }
            if (layer == tr::Channel)
                m.emplace_back(name + ".records_per_op",
                               perOp(double(t.calls)));
            else if (layer == tr::Sha256 || layer == tr::AesCtr)
                m.emplace_back(name + ".bytes_per_op",
                               perOp(double(t.bytes)));
            else if (layer != tr::Interpret && !name.ends_with(".recv"))
                m.emplace_back(name + ".calls_per_op",
                               perOp(double(t.calls)));
            m.emplace_back(name + ".self_us_per_op", perOp(t.selfUs));
        }
        m.emplace_back("crypto.rsa_keygen.setup_calls", double(setupKeygens));
        m.emplace_back("sim.background.us_per_op", perOp(backgroundUs));

        if (tr::negativeSelfSeen())
            errors.push_back("negative self time");
        if (tr::topLevelUsOnThisThread() > 1e6 * wall)
            errors.push_back("top-level spans exceed the timed wall time");
        if (!opt.traceOut.empty() && !tr::writeChromeTrace(opt.traceOut))
            errors.push_back("cannot write " + opt.traceOut);
    }

    std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %zu, "
                "\"traced\": %s, \"digest\": \"%s\", "
                "\"digest_width1\": \"%s\", \"attempted\": %llu, "
                "\"failed\": %llu, \"errors\": [",
                w->name, static_cast<unsigned long long>(opt.seed),
                threads, kTraced ? "true" : "false", gateDigest.c_str(),
                serialDigest.c_str(),
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < errors.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "", errors[i].c_str());
    std::printf("], \"metrics\": {");
    for (std::size_t i = 0; i < m.size(); ++i)
        std::printf("%s\"%s\": %.17g", i ? ", " : "", m[i].first.c_str(),
                    m[i].second);
    std::printf("}}\n");
    return 0;
}
