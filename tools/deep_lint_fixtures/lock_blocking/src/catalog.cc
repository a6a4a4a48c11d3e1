// Firing fixture: blocking work transitively reachable while an exclusive
// capability is held — once through an RAII writer lock, once through a
// DMX_REQUIRES-annotated method defined out of line, and once as an
// untimed condition wait that releases only its own mutex.
#include "support.h"

namespace fx {

class Catalog {
 public:
  void Rebuild() {
    WriterMutexLock lock(&mu_);
    Persist();
  }

  int Persist() { return env_->WriteStringToFile("catalog", "x"); }

 private:
  SharedMutex mu_;
  Env* env_;
};

class Journal {
 public:
  void AppendLocked(const char* record) DMX_REQUIRES(mu_);

  Mutex mu_;
  Env* env_;
};

void Journal::AppendLocked(const char* record) {
  env_->WriteStringToFile("journal", record);
}

class Waiter {
 public:
  void AwaitUnderRegistryLock() {
    MutexLock registry(&registry_mu_);
    MutexLock lock(&wake_mu_);
    cv_.Wait(&wake_mu_);
  }

 private:
  Mutex registry_mu_;
  Mutex wake_mu_;
  CondVar cv_;
};

}  // namespace fx
