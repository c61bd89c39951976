#include "support/durable/cancel.hpp"

#include <csignal>

namespace memopt {

namespace {

/// Async-signal-safe trip flag: the handler only stores here.
volatile std::sig_atomic_t g_signal_tripped = 0;

extern "C" void on_cancel_signal(int) { g_signal_tripped = 1; }

}  // namespace

void CancellationToken::set_deadline_sec(double seconds) {
    if (seconds < 0.0) {
        deadline_armed_ = false;
        return;
    }
    deadline_armed_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(seconds));
}

void CancellationToken::request(const std::string& reason) {
    {
        std::lock_guard<std::mutex> lock(reason_mutex_);
        if (!triggered_.load(std::memory_order_relaxed)) reason_ = reason;
    }
    triggered_.store(true, std::memory_order_release);
}

void CancellationToken::latch(const char* why) {
    std::lock_guard<std::mutex> lock(reason_mutex_);
    if (!triggered_.exchange(true, std::memory_order_acq_rel)) reason_ = why;
}

bool CancellationToken::triggered() {
    if (triggered_.load(std::memory_order_acquire)) return true;
    if (g_signal_tripped != 0) {
        latch("signal received (SIGINT/SIGTERM)");
        return true;
    }
    if (deadline_armed_ && std::chrono::steady_clock::now() >= deadline_) {
        latch("wall-clock deadline exceeded");
        return true;
    }
    return false;
}

std::string CancellationToken::reason() const {
    std::lock_guard<std::mutex> lock(reason_mutex_);
    return reason_;
}

void CancellationToken::check() {
    if (triggered()) throw CancelledError("cancelled: " + reason());
}

void CancellationToken::reset() {
    g_signal_tripped = 0;
    triggered_.store(false, std::memory_order_release);
    deadline_armed_ = false;
    std::lock_guard<std::mutex> lock(reason_mutex_);
    reason_.clear();
}

CancellationToken& CancellationToken::global() {
    static CancellationToken token;
    return token;
}

void install_cancellation_handlers() {
    std::signal(SIGINT, on_cancel_signal);
    std::signal(SIGTERM, on_cancel_signal);
}

}  // namespace memopt
