// Minimal logging and assertion macros in the style of glog/absl.
//
// CHECK* macros abort on failure and are always on; they guard simulator
// invariants whose violation would silently corrupt an experiment. LOG(INFO)
// writes to stderr and can be silenced with SetLogLevel().
//
// The failure path is cold: CHECK predicts its condition true, and
// LogMessage's constructor is marked cold, so the compiler moves message
// formatting out of line and a small checked accessor (CpuMask bounds,
// Topology::cpu) stays cheap enough to inline.
#ifndef GHOST_SIM_SRC_BASE_LOGGING_H_
#define GHOST_SIM_SRC_BASE_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace gs {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3, kFatal = 4 };

// Minimum level that is actually emitted. Defaults to kInfo.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace log_internal {

class LogMessage {
 public:
  [[gnu::cold]] LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

// Consumes an ostream so that `CHECK(x) << "msg"` compiles in the passing case
// without evaluating the message.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace log_internal
}  // namespace gs

#define GS_LOG_LEVEL_DEBUG ::gs::LogLevel::kDebug
#define GS_LOG_LEVEL_INFO ::gs::LogLevel::kInfo
#define GS_LOG_LEVEL_WARNING ::gs::LogLevel::kWarning
#define GS_LOG_LEVEL_ERROR ::gs::LogLevel::kError
#define GS_LOG_LEVEL_FATAL ::gs::LogLevel::kFatal

#define LOG(severity)                                                             \
  ::gs::log_internal::LogMessage(GS_LOG_LEVEL_##severity, __FILE__, __LINE__).stream()

#define CHECK(cond)                                                     \
  __builtin_expect(static_cast<bool>(cond), 1)                          \
      ? (void)0                                                         \
      : ::gs::log_internal::Voidify() &                                 \
            ::gs::log_internal::LogMessage(::gs::LogLevel::kFatal,      \
                                           __FILE__, __LINE__)          \
                .stream()                                               \
            << "Check failed: " #cond " "

#define CHECK_OP(a, b, op) CHECK((a)op(b)) << "(" << (a) << " vs " << (b) << ") "
#define CHECK_EQ(a, b) CHECK_OP(a, b, ==)
#define CHECK_NE(a, b) CHECK_OP(a, b, !=)
#define CHECK_LT(a, b) CHECK_OP(a, b, <)
#define CHECK_LE(a, b) CHECK_OP(a, b, <=)
#define CHECK_GT(a, b) CHECK_OP(a, b, >)
#define CHECK_GE(a, b) CHECK_OP(a, b, >=)

// Debug-only checks for hot-path invariants: active in Debug builds (and the
// sanitizer CI jobs), compiled out under NDEBUG so per-event accessors cost
// nothing in benchmark builds. The condition is still compiled (no unused-
// variable surprises), just never evaluated.
#ifndef NDEBUG
#define DCHECK(cond) CHECK(cond)
#define DCHECK_EQ(a, b) CHECK_EQ(a, b)
#define DCHECK_NE(a, b) CHECK_NE(a, b)
#define DCHECK_LT(a, b) CHECK_LT(a, b)
#define DCHECK_LE(a, b) CHECK_LE(a, b)
#define DCHECK_GT(a, b) CHECK_GT(a, b)
#define DCHECK_GE(a, b) CHECK_GE(a, b)
#else
#define DCHECK(cond) \
  while (false) CHECK(cond)
#define DCHECK_EQ(a, b) DCHECK((a) == (b))
#define DCHECK_NE(a, b) DCHECK((a) != (b))
#define DCHECK_LT(a, b) DCHECK((a) < (b))
#define DCHECK_LE(a, b) DCHECK((a) <= (b))
#define DCHECK_GT(a, b) DCHECK((a) > (b))
#define DCHECK_GE(a, b) DCHECK((a) >= (b))
#endif

#endif  // GHOST_SIM_SRC_BASE_LOGGING_H_
