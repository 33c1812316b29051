#include "runner/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace rapid::runner {

int default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for(int threads, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  const std::size_t workers = std::min(static_cast<std::size_t>(std::max(threads, 1)), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto work = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(n);  // every later claim sees an index past the end
      }
    }
  };
  std::vector<std::thread> helpers;
  helpers.reserve(workers - 1);
  try {
    for (std::size_t t = 1; t < workers; ++t) helpers.emplace_back(work);
  } catch (const std::system_error&) {
    // Fewer helpers than asked for: the ones started and the caller still
    // claim every index.
  }
  work();
  for (std::thread& t : helpers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace rapid::runner
