// Clean fixture: the same shapes as lock_blocking, kept clean the three
// sanctioned ways — I/O hoisted before the critical section, condition
// waits (timed and untimed) that release their own mutex, and the journal protocol sanctioned
// via CONFIG.json (whose io_cap covers the store's I/O-serializing mutex).
#include "support.h"

namespace fx {

class Store {
 public:
  int Journal(const char* record) DMX_REQUIRES(mu_) {
    return env_->WriteStringToFile("wal", record);
  }

  Mutex mu_;
  Env* env_;
};

class Provider {
 public:
  void Mutate(const char* record) {
    BuildPayload(record);
    WriterMutexLock lock(&catalog_mu_);
    store_->Journal(record);
  }

  void WaitForWork() {
    MutexLock lock(&wake_mu_);
    cv_.WaitFor(&wake_mu_, 10);
  }

  void WaitUntilWoken() {
    MutexLock lock(&wake_mu_);
    cv_.Wait(&wake_mu_);
  }

  void BuildPayload(const char* record) { payload_size_ = Measure(record); }

  int Measure(const char* record);

 private:
  SharedMutex catalog_mu_;
  Mutex wake_mu_;
  CondVar cv_;
  Store* store_;
  int payload_size_;
};

}  // namespace fx
