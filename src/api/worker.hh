/**
 * @file
 * The worker half of the supervised execution mode: one `gemini worker`
 * subprocess speaks a length-prefixed JSON frame protocol (see
 * common/subprocess.hh) on stdin/stdout and evaluates one DSE candidate
 * per request, exactly as the in-process scheduler would — same engine
 * options, same warm starts, same SA seeds — so worker-mode runs produce
 * bit-identical winners.
 *
 * Protocol (one outstanding request per worker, strictly alternating):
 *
 *   supervisor -> worker   {"kind":"init","spec":{...}}
 *   worker -> supervisor   {"kind":"ready"} | {"kind":"error",...}
 *   supervisor -> worker   {"kind":"eval","seq":N,"index":i,"rung":r,
 *                           "iters":..,"chains":..,"seed":"0x..",
 *                           "arch":{...},"warm_starts":[...]}
 *   worker -> supervisor   {"kind":"heartbeat","seq":N}   (repeated)
 *   worker -> supervisor   {"kind":"result","seq":N,"per_model":[...],
 *                           "mappings":[...]}
 *                        | {"kind":"error","seq":N,"message":"..."}
 *   supervisor -> worker   {"kind":"shutdown"}  (or just EOF on stdin)
 *
 * Heartbeats flow from a dedicated thread while the evaluation runs, so
 * a worker that stops beating is genuinely wedged (or dead), not merely
 * busy — the supervisor's watchdog kills it either way.
 *
 * The 64-bit SA seed crosses the wire as a hex string: JSON numbers are
 * doubles here, and a seed rounded through a double would silently break
 * the bit-determinism contract.
 *
 * Worker-side fault sites (armed via GEMINI_FAULT_INJECT, which workers
 * inherit): `worker.crash` / `worker.crash.cand<i>` make the evaluation
 * die instantly like a segfault would; `worker.heartbeat` wedges the
 * heartbeat loop to simulate a hang.
 */

#ifndef GEMINI_API_WORKER_HH
#define GEMINI_API_WORKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/arch_config.hh"
#include "src/common/json.hh"
#include "src/eval/breakdown.hh"
#include "src/mapping/encoding.hh"

namespace gemini::api {

/** One supervisor->worker frame. */
struct WorkerRequest
{
    enum class Kind
    {
        Init,    ///< carries the experiment spec; expect ready/error
        Eval,    ///< evaluate one candidate; expect result/error
        Shutdown ///< exit cleanly (EOF on stdin means the same)
    };

    Kind kind = Kind::Shutdown;
    std::uint64_t seq = 0; ///< echoed by every response to this request

    // Init
    std::string specText; ///< full ExperimentSpec JSON text

    // Eval (mirrors dse::RemoteEvalRequest; see dse.hh for rung codes)
    std::size_t index = 0;
    int rung = -1;
    int iters = 0;
    int chains = 1;
    std::uint64_t seed = 0;
    arch::ArchConfig arch;
    std::vector<mapping::LpMapping> warmStarts;

    std::string toText() const;
    static bool fromText(const std::string &text, WorkerRequest &out,
                         std::string *error);
};

/** One worker->supervisor frame. */
struct WorkerResponse
{
    enum class Kind
    {
        Ready,     ///< init accepted, spec resolved
        Heartbeat, ///< evaluation alive (watchdog food)
        Result,    ///< evaluation finished
        Error      ///< structured failure (bad spec, engine threw...)
    };

    Kind kind = Kind::Error;
    std::uint64_t seq = 0;
    std::string message; ///< Error only

    // Result only (mirrors dse::RemoteEvalOutcome)
    std::vector<eval::EvalBreakdown> perModel;
    std::vector<mapping::LpMapping> mappings;
    bool seededAnalytic = false;
    int saIters = 0;
    double cpuSeconds = 0.0; ///< eval-thread CPU of the evaluation

    std::string toText() const;
    static bool fromText(const std::string &text, WorkerResponse &out,
                         std::string *error);
};

/**
 * The `gemini worker` main loop: frames on stdin/stdout until EOF or a
 * shutdown request. Never throws; protocol-level problems are answered
 * with error frames and a broken pipe exits. @return process exit code.
 */
int runWorkerMain();

} // namespace gemini::api

#endif // GEMINI_API_WORKER_HH
