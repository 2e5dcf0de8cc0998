#include "src/scenario/parallel_runner.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>

#include "src/util/mutex.h"

namespace airfair {

int DefaultThreadCount() {
  if (const char* env = std::getenv("AIRFAIR_THREADS"); env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) {
      return parsed;
    }
    return 1;  // Malformed or "0": fall back to serial, not to a huge pool.
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void RunJobs(int job_count, const std::function<void(int)>& body, int threads) {
  if (job_count <= 0) {
    return;
  }
  if (threads <= 0) {
    threads = DefaultThreadCount();
  }
  if (threads > job_count) {
    threads = job_count;
  }

  if (threads == 1) {
    // Serial path: no pool, no atomics — and the reference behaviour the
    // determinism tests compare the parallel path against.
    for (int job = 0; job < job_count; ++job) {
      body(job);
    }
    return;
  }

  std::atomic<int> next_job{0};
  std::exception_ptr first_error;
  Mutex error_mutex;  // Guards first_error.

  auto worker = [&] {
    for (;;) {
      const int job = next_job.fetch_add(1, std::memory_order_relaxed);
      if (job >= job_count) {
        return;
      }
      try {
        body(job);
      } catch (...) {
        MutexLock lock(&error_mutex);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

}  // namespace airfair
