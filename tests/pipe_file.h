// A pipe that a writer thread fills with given bytes and then closes, for
// readers that must take a pipe, FIFO or /dev/stdin where they take a path.
#pragma once

#include <pthread.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <stdexcept>
#include <string>
#include <thread>

namespace dm::pipetest {

/// path() names the read end, as `cat file | reader /dev/stdin` would.
class PipeFile {
 public:
  template <typename Bytes>
  explicit PipeFile(const Bytes& bytes) : bytes_(bytes.begin(), bytes.end()) {
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error("pipe() failed");
    read_fd_ = fds[0];
    writer_ = std::thread([&bytes = bytes_, fd = fds[1]] {
      // A reader that gave up early closes the pipe: the write then fails
      // with EPIPE instead of raising SIGPIPE on the test process.
      sigset_t pipe_signal;
      sigemptyset(&pipe_signal);
      sigaddset(&pipe_signal, SIGPIPE);
      pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
      std::size_t at = 0;
      while (at < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + at, bytes.size() - at);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        at += static_cast<std::size_t>(n);
      }
      ::close(fd);
    });
  }
  ~PipeFile() {
    ::close(read_fd_);  // unblocks a writer whose reader never came
    writer_.join();
  }
  PipeFile(const PipeFile&) = delete;
  PipeFile& operator=(const PipeFile&) = delete;

  std::string path() const { return "/dev/fd/" + std::to_string(read_fd_); }

 private:
  std::string bytes_;
  int read_fd_ = -1;
  std::thread writer_;
};

}  // namespace dm::pipetest
