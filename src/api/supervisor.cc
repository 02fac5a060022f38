#include "src/api/supervisor.hh"

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "src/api/worker.hh"
#include "src/common/fault_injection.hh"
#include "src/common/logging.hh"

namespace gemini::api {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Exponential backoff before the Nth consecutive respawn: 25ms << N. */
void
backoffSleep(int consecutive_failures)
{
    if (consecutive_failures <= 0)
        return;
    const int shift = std::min(consecutive_failures - 1, 6);
    std::this_thread::sleep_for(std::chrono::milliseconds(25 << shift));
}

} // namespace

WorkerSupervisor::WorkerSupervisor(SupervisorOptions options)
    : opts_(std::move(options))
{
    opts_.workers = std::max(1, opts_.workers);
    opts_.maxRetries = std::max(0, opts_.maxRetries);
    slots_.resize(static_cast<std::size_t>(opts_.workers));
}

WorkerSupervisor::~WorkerSupervisor()
{
    // Polite first: EOF on stdin asks each worker to exit cleanly...
    for (Slot &slot : slots_)
        if (slot.proc)
            slot.proc->closeStdin();
    const Clock::time_point t0 = Clock::now();
    for (Slot &slot : slots_) {
        if (!slot.proc)
            continue;
        while (slot.proc->running() && secondsSince(t0) < 0.5)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        // ...then SIGKILL whatever is still around (wedged workers).
        slot.proc->kill();
        slot.proc->wait();
    }
}

bool
WorkerSupervisor::start(std::string *error)
{
    // Called before any evaluate(); slot 0 is not contended yet.
    return spawnWorker(slots_[0], error);
}

SupervisorStats
WorkerSupervisor::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

int
WorkerSupervisor::acquireSlot()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        for (std::size_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].busy) {
                slots_[i].busy = true;
                return static_cast<int>(i);
            }
        }
        slotFree_.wait(lock);
    }
}

void
WorkerSupervisor::releaseSlot(int index)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        slots_[static_cast<std::size_t>(index)].busy = false;
    }
    slotFree_.notify_one();
}

bool
WorkerSupervisor::spawnWorker(Slot &slot, std::string *error)
{
    backoffSleep(slot.consecutiveSpawnFailures);
    auto fail = [&](const std::string &why) {
        ++slot.consecutiveSpawnFailures;
        if (error)
            *error = why;
        return false;
    };

    if (common::fault::shouldFail("worker.spawn"))
        return fail("injected fault at worker.spawn");

    auto proc = std::make_unique<common::Subprocess>();
    std::string err;
    if (!proc->spawn(opts_.workerArgv, &err))
        return fail("spawn: " + err);

    WorkerRequest init;
    init.kind = WorkerRequest::Kind::Init;
    init.seq = 0;
    init.specText = opts_.specText;
    if (!common::writeFrame(proc->stdinFd(), init.toText(), &err)) {
        proc->kill();
        proc->wait();
        return fail("init write: " + err);
    }

    const Clock::time_point t0 = Clock::now();
    std::string payload;
    for (;;) {
        const double remaining =
            opts_.handshakeTimeoutSeconds - secondsSince(t0);
        if (remaining <= 0.0) {
            proc->kill();
            proc->wait();
            return fail("init handshake timed out");
        }
        const common::FrameStatus st =
            common::readFrame(proc->stdoutFd(), payload, remaining);
        if (st != common::FrameStatus::Ok) {
            proc->kill();
            proc->wait();
            return fail(std::string("init read: ") +
                        common::frameStatusName(st));
        }
        WorkerResponse resp;
        if (!WorkerResponse::fromText(payload, resp, &err)) {
            proc->kill();
            proc->wait();
            return fail("init response: " + err);
        }
        if (resp.kind == WorkerResponse::Kind::Heartbeat)
            continue;
        if (resp.kind == WorkerResponse::Kind::Ready)
            break;
        proc->kill();
        proc->wait();
        return fail("worker rejected spec: " + resp.message);
    }

    slot.proc = std::move(proc);
    slot.nextSeq = 1;
    slot.consecutiveSpawnFailures = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.spawns;
    }
    return true;
}

void
WorkerSupervisor::killWorker(Slot &slot, const std::string &why)
{
    if (!slot.proc)
        return;
    GEMINI_WARN("supervisor: killing worker pid ",
                static_cast<long>(slot.proc->pid()), " (", why, ")");
    slot.proc->kill();
    slot.proc->wait();
    slot.proc.reset();
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.kills;
}

bool
WorkerSupervisor::attemptOnWorker(Slot &slot,
                                  const dse::RemoteEvalRequest &request,
                                  dse::RemoteEvalOutcome &outcome,
                                  std::string &why)
{
    WorkerRequest rq;
    rq.kind = WorkerRequest::Kind::Eval;
    rq.seq = slot.nextSeq++;
    rq.index = request.index;
    rq.rung = request.rung;
    rq.iters = request.iters;
    rq.chains = request.chains;
    rq.seed = request.seed;
    rq.arch = *request.arch;
    if (request.warmStarts)
        rq.warmStarts = *request.warmStarts;

    std::string err;
    if (common::fault::shouldFail("worker.write")) {
        killWorker(slot, "injected fault at worker.write");
        why = "injected fault at worker.write";
        return false;
    }
    if (!common::writeFrame(slot.proc->stdinFd(), rq.toText(), &err)) {
        killWorker(slot, "eval write failed: " + err);
        why = "eval write: " + err;
        return false;
    }

    const Clock::time_point t0 = Clock::now();
    Clock::time_point last_frame = t0;
    std::string payload;
    for (;;) {
        const double waited = secondsSince(t0);
        if (opts_.candidateDeadlineSeconds > 0.0 &&
            waited > opts_.candidateDeadlineSeconds) {
            why = "candidate deadline exceeded";
            killWorker(slot, why);
            return false;
        }
        if (secondsSince(last_frame) > opts_.heartbeatTimeoutSeconds) {
            why = "heartbeat timeout";
            killWorker(slot, why);
            return false;
        }
        if (opts_.candidateRssMiB > 0) {
            const long rss = common::processRssMiB(slot.proc->pid());
            if (rss > opts_.candidateRssMiB) {
                why = "rss budget exceeded (" + std::to_string(rss) +
                      " MiB)";
                killWorker(slot, why);
                return false;
            }
        }

        // poll() first so a quiet pipe doesn't enter readFrame (whose
        // timeout discards partial bytes — only safe when we kill).
        struct pollfd pfd;
        pfd.fd = slot.proc->stdoutFd();
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int pr = ::poll(&pfd, 1, /*ms=*/100);
        if (pr == 0)
            continue;
        if (pr < 0 || !(pfd.revents & (POLLIN | POLLHUP))) {
            why = "poll on worker pipe failed";
            killWorker(slot, why);
            return false;
        }

        const common::FrameStatus st = common::readFrame(
            slot.proc->stdoutFd(), payload, opts_.heartbeatTimeoutSeconds);
        if (st != common::FrameStatus::Ok) {
            why = std::string("response frame ") +
                  common::frameStatusName(st);
            killWorker(slot, why);
            return false;
        }
        last_frame = Clock::now();

        WorkerResponse resp;
        if (!WorkerResponse::fromText(payload, resp, &err)) {
            why = "garbage response: " + err;
            killWorker(slot, why);
            return false;
        }
        if (resp.seq != rq.seq) {
            why = "out-of-sequence response";
            killWorker(slot, why);
            return false;
        }
        if (resp.kind == WorkerResponse::Kind::Heartbeat)
            continue;
        if (resp.kind == WorkerResponse::Kind::Error) {
            // Structured failure: the worker is healthy, the candidate
            // (or request) is not. Counts as a failed attempt.
            why = resp.message;
            return false;
        }
        if (resp.kind != WorkerResponse::Kind::Result ||
            resp.perModel.empty() ||
            resp.perModel.size() != resp.mappings.size()) {
            why = "malformed result frame";
            killWorker(slot, why);
            return false;
        }
        outcome.poisoned = false;
        outcome.poisonReason.clear();
        outcome.perModel = std::move(resp.perModel);
        outcome.mappings = std::move(resp.mappings);
        outcome.seededAnalytic = resp.seededAnalytic;
        outcome.saIters = resp.saIters;
        outcome.cpuSeconds = resp.cpuSeconds;
        return true;
    }
}

dse::RemoteEvalOutcome
WorkerSupervisor::evaluate(const dse::RemoteEvalRequest &request)
{
    const int index = acquireSlot();
    Slot &slot = slots_[static_cast<std::size_t>(index)];

    dse::RemoteEvalOutcome outcome;
    std::string last_why = "never attempted";
    const int attempts = 1 + opts_.maxRetries;
    for (int attempt = 0; attempt < attempts; ++attempt) {
        if (attempt > 0) {
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.retries;
        }
        if (!slot.proc) {
            std::string err;
            if (!spawnWorker(slot, &err)) {
                last_why = err;
                continue;
            }
        }
        if (attemptOnWorker(slot, request, outcome, last_why)) {
            releaseSlot(index);
            return outcome;
        }
        GEMINI_WARN("supervisor: candidate ", request.index, " attempt ",
                    attempt + 1, "/", attempts, " failed: ", last_why);
    }

    outcome.poisoned = true;
    outcome.poisonReason = last_why;
    outcome.perModel.clear();
    outcome.mappings.clear();
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.poisoned;
    }
    releaseSlot(index);
    return outcome;
}

} // namespace gemini::api
