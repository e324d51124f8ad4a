#include "trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench::trace
{
namespace
{

using Clock = std::chrono::steady_clock;

/** Spans kept for the Chrome trace file; totals are never capped. */
constexpr std::uint64_t kMaxKeptSpans = 200000;

struct Frame
{
    Layer layer;
    std::uint64_t id;
    std::uint64_t bytes;
    std::uint64_t items;
    Clock::time_point start;
    double childUs;
};

struct KeptSpan
{
    Layer layer;
    std::uint64_t id;
    std::uint64_t parent; //!< 0 = top level on its thread.
    std::uint64_t op;
    double startUs;
    double durUs;
};

struct ThreadLog
{
    std::uint32_t tid = 0;
    std::vector<Frame> stack;
    std::array<LayerTotals, kLayers> totals{};
    std::vector<KeptSpan> kept;
    std::uint64_t opened = 0;
    double topLevelUs = 0;
    bool negative = false;
};

const Clock::time_point kEpoch = Clock::now();
std::atomic<bool> recording{false};
std::atomic<std::uint64_t> currentOp{0};
std::atomic<std::uint64_t> nextSpanId{1};
std::atomic<std::uint64_t> keptSpans{0};
std::array<std::atomic<std::uint64_t>, kLayers> everCalled{};

std::mutex registryMu;
std::vector<std::unique_ptr<ThreadLog>> registry; // guarded by registryMu

ThreadLog &
threadLog()
{
    thread_local ThreadLog *mine = nullptr;
    if (!mine) {
        std::lock_guard<std::mutex> lock(registryMu);
        registry.push_back(std::make_unique<ThreadLog>());
        mine = registry.back().get();
        mine->tid = static_cast<std::uint32_t>(registry.size());
    }
    return *mine;
}

double
usBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::micro>(b - a).count();
}

} // namespace

const char *
layerName(Layer layer)
{
    static constexpr const char *kNames[kLayers] = {
        "crypto.rsa_sign",      "crypto.rsa_verify", "crypto.rsa_keygen",
        "crypto.modexp",        "crypto.hmac",       "crypto.sha256",
        "crypto.aes_ctr",       "net.channel",       "net.handshake",
        "proto.codec",          "tpm.quote",         "attestation.interpret",
        "sim.journal",          "sim.journal.sync",
        "customer.recv",     "controller.recv",
        "attestation.recv",     "pca.recv",          "server.recv",
    };
    return kNames[layer];
}

Span::Span(Layer layer, std::uint64_t bytes, std::uint64_t items)
    : active(recording.load(std::memory_order_relaxed))
{
    everCalled[layer].fetch_add(1, std::memory_order_relaxed);
    if (!active)
        return;
    ThreadLog &log = threadLog();
    ++log.opened;
    log.stack.push_back(Frame{
        layer, nextSpanId.fetch_add(1, std::memory_order_relaxed), bytes,
        items, Clock::now(), 0.0});
}

Span::~Span()
{
    if (!active)
        return;
    const Clock::time_point end = Clock::now();
    ThreadLog &log = threadLog();
    const Frame frame = log.stack.back();
    log.stack.pop_back();

    const double durUs = usBetween(frame.start, end);
    const double selfUs = durUs - frame.childUs;
    if (selfUs < 0)
        log.negative = true;
    LayerTotals &t = log.totals[frame.layer];
    ++t.calls;
    t.bytes += frame.bytes;
    t.items += frame.items;
    t.selfUs += selfUs;

    std::uint64_t parent = 0;
    if (log.stack.empty()) {
        log.topLevelUs += durUs;
    } else {
        log.stack.back().childUs += durUs;
        parent = log.stack.back().id;
    }
    if (keptSpans.fetch_add(1, std::memory_order_relaxed) < kMaxKeptSpans)
        log.kept.push_back(KeptSpan{
            frame.layer, frame.id, parent,
            currentOp.load(std::memory_order_relaxed),
            usBetween(kEpoch, frame.start), durUs});
}

std::uint64_t
callsAlways(Layer layer)
{
    return everCalled[layer].load(std::memory_order_relaxed);
}

void
setRecording(bool on)
{
    recording.store(on, std::memory_order_relaxed);
}

bool
isRecording()
{
    return recording.load(std::memory_order_relaxed);
}

void
clearTotals()
{
    std::lock_guard<std::mutex> lock(registryMu);
    for (const auto &log : registry) {
        log->totals = {};
        log->topLevelUs = 0;
    }
}

void
setCurrentOp(std::uint64_t op)
{
    currentOp.store(op, std::memory_order_relaxed);
}

std::uint64_t
spansOnThisThread()
{
    return threadLog().opened;
}

std::array<LayerTotals, kLayers>
totals()
{
    std::array<LayerTotals, kLayers> sum{};
    std::lock_guard<std::mutex> lock(registryMu);
    for (const auto &log : registry) {
        for (int l = 0; l < kLayers; ++l) {
            sum[l].calls += log->totals[l].calls;
            sum[l].bytes += log->totals[l].bytes;
            sum[l].items += log->totals[l].items;
            sum[l].selfUs += log->totals[l].selfUs;
        }
    }
    return sum;
}

double
topLevelUsOnThisThread()
{
    return threadLog().topLevelUs;
}

bool
negativeSelfSeen()
{
    std::lock_guard<std::mutex> lock(registryMu);
    for (const auto &log : registry)
        if (log->negative)
            return true;
    return false;
}

bool
writeChromeTrace(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[\n", f);
    bool first = true;
    std::lock_guard<std::mutex> lock(registryMu);
    for (const auto &log : registry) {
        for (const KeptSpan &s : log->kept) {
            std::fprintf(f,
                         "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                         "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":"
                         "{\"id\":%llu,\"parent\":%llu,\"op\":%llu}}",
                         first ? "" : ",\n", layerName(s.layer), log->tid,
                         s.startUs, s.durUs,
                         static_cast<unsigned long long>(s.id),
                         static_cast<unsigned long long>(s.parent),
                         static_cast<unsigned long long>(s.op));
            first = false;
        }
    }
    std::fputs("\n],\"displayTimeUnit\":\"ms\"}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench::trace
