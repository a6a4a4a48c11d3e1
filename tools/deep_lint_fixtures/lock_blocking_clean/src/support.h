// Minimal stand-ins: the analyzer keys on the project's type and macro
// names, so fixture stubs only need the shapes.
struct Env {
  int WriteStringToFile(const char* path, const char* data);
};
struct Mutex {};
struct SharedMutex {};
struct MutexLock {
  explicit MutexLock(Mutex* mu);
};
struct WriterMutexLock {
  explicit WriterMutexLock(SharedMutex* mu);
};
struct CondVar {
  bool WaitFor(Mutex* mu, int timeout_ms);
  void Wait(Mutex* mu);
};
