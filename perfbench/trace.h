/**
 * @file
 * In-memory span recorder for the traced benchmark binary.
 *
 * The traced binary links wrappers (wrappers.cpp) around exported
 * functions of each layer with `-Wl,--wrap=<symbol>`. Every wrapper
 * opens a Span for the duration of the real call. Spans nest per
 * thread; a span's self time is its duration minus the time covered
 * by its child spans on the same thread. Totals are kept per thread
 * and merged after the timed region, and up to a fixed number of
 * individual spans are kept for the Chrome trace-event file.
 *
 * Recording is on for the correctness gate, so its digest covers
 * active tracing, and for the timed region. The totals are cleared in
 * between, and recording is off for every set-up, so only the timed
 * region feeds the per-op figures (set-up keygen calls are counted
 * separately). Recording only reads: no wrapper changes an argument
 * or a result.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace perfbench::trace
{

/** Layers, named after the repository's modules. */
enum Layer : int
{
    RsaSign,
    RsaVerify,
    RsaKeygen,
    ModExp,
    Hmac,
    Sha256,
    AesCtr,
    Channel,
    Handshake,
    Codec,
    TpmQuote,
    Interpret,
    Journal,
    JournalSync,
    RecvCustomer,
    RecvController,
    RecvAttestation,
    RecvPca,
    RecvServer,
    kLayers
};

/** Metric prefix of a layer, e.g. "crypto.rsa_sign". */
const char *layerName(Layer layer);

/** Per-layer totals merged over every thread. */
struct LayerTotals
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
    std::uint64_t items = 0; //!< Records appended (journal only).
    double selfUs = 0;
};

/** RAII span around one wrapped call. */
class Span
{
  public:
    explicit Span(Layer layer, std::uint64_t bytes = 0,
                  std::uint64_t items = 0);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    bool active;
};

/** Count calls of a layer, even while recording is off (set-up). */
std::uint64_t callsAlways(Layer layer);

/** Turn accumulation on (gate, timed region) or off. */
void setRecording(bool on);

/** Whether spans are being recorded. */
bool isRecording();

/** Zero the per-layer totals and top-level time of every thread. Kept
 * spans and a negative self time seen so far stay. */
void clearTotals();

/** The op the driver is advancing; stamped on every span. */
void setCurrentOp(std::uint64_t op);

/** Spans opened on the calling thread so far (while recording). */
std::uint64_t spansOnThisThread();

/** Merged totals over every thread. */
std::array<LayerTotals, kLayers> totals();

/** Sum of top-level span durations on the calling thread, in us. */
double topLevelUsOnThisThread();

/** True when any span's self time came out negative. */
bool negativeSelfSeen();

/**
 * Write the kept spans as Chrome trace-event JSON (an object with a
 * "traceEvents" array of complete "X" events, timestamps in us).
 * @return False when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path);

} // namespace perfbench::trace

#endif // PERFBENCH_TRACE_H
