#include "sim/timeline.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace gum::sim {

const char* TimeCategoryName(TimeCategory cat) {
  switch (cat) {
    case TimeCategory::kCompute:
      return "computation";
    case TimeCategory::kCommunication:
      return "communication";
    case TimeCategory::kSerialization:
      return "serialization";
    case TimeCategory::kOverhead:
      return "overhead";
  }
  return "unknown";
}

void Timeline::Add(int iter, int device, TimeCategory cat, double ms) {
  GUM_CHECK(device >= 0 && device < num_devices_);
  GUM_CHECK(iter >= 0);
  if (iter >= static_cast<int>(iterations_.size())) {
    iterations_.resize(iter + 1,
                       std::vector<DeviceCell>(num_devices_));
  }
  iterations_[iter][device].ms[static_cast<int>(cat)] += ms;
}

const Timeline::DeviceCell* Timeline::Cell(int iter, int device) const {
  GUM_CHECK(device >= 0 && device < num_devices_);
  GUM_CHECK(iter >= 0);
  if (iter >= num_iterations()) return nullptr;
  return &iterations_[iter][device];
}

double Timeline::Get(int iter, int device, TimeCategory cat) const {
  const DeviceCell* cell = Cell(iter, device);
  return cell == nullptr ? 0.0 : cell->ms[static_cast<int>(cat)];
}

double Timeline::DeviceIterationTotal(int iter, int device) const {
  const DeviceCell* cell = Cell(iter, device);
  if (cell == nullptr) return 0.0;
  double total = 0;
  for (double v : cell->ms) total += v;
  return total;
}

double Timeline::IterationWall(int iter) const {
  GUM_CHECK(iter >= 0);
  double wall = 0;
  for (int d = 0; d < num_devices_; ++d) {
    wall = std::max(wall, DeviceIterationTotal(iter, d));
  }
  return wall;
}

double Timeline::TotalByCategory(TimeCategory cat) const {
  double total = 0;
  for (int it = 0; it < num_iterations(); ++it) {
    for (int d = 0; d < num_devices_; ++d) total += Get(it, d, cat);
  }
  return total;
}

double Timeline::TotalWall() const {
  double total = 0;
  for (int it = 0; it < num_iterations(); ++it) total += IterationWall(it);
  return total;
}

double Timeline::StallFraction() const {
  double busy = 0, capacity = 0;
  for (int it = 0; it < num_iterations(); ++it) {
    const double wall = IterationWall(it);
    int active = 0;
    for (int d = 0; d < num_devices_; ++d) {
      const double t = DeviceIterationTotal(it, d);
      if (t > 0) {
        busy += t;
        ++active;
      }
    }
    capacity += wall * active;
  }
  if (capacity <= 0) return 0;
  return 1.0 - busy / capacity;
}

int Timeline::ActiveDevices(int iter) const {
  GUM_CHECK(iter >= 0);
  int active = 0;
  for (int d = 0; d < num_devices_; ++d) {
    if (DeviceIterationTotal(iter, d) > 0) ++active;
  }
  return active;
}

void Timeline::WriteCsv(std::ostream& os) const {
  os << "iteration,device,compute_ms,communication_ms,serialization_ms,"
        "overhead_ms\n";
  for (int it = 0; it < num_iterations(); ++it) {
    for (int d = 0; d < num_devices_; ++d) {
      if (DeviceIterationTotal(it, d) == 0.0) continue;
      os << it << ',' << d;
      for (int c = 0; c < kNumTimeCategories; ++c) {
        os << ',' << iterations_[it][d].ms[c];
      }
      os << '\n';
    }
  }
}

std::string Timeline::RenderAscii(int max_columns) const {
  std::ostringstream os;
  const int iters = num_iterations();
  if (iters == 0) return "(empty timeline)\n";
  const int bucket = std::max(1, (iters + max_columns - 1) / max_columns);
  const int columns = (iters + bucket - 1) / bucket;
  os << "utilization (rows=devices, cols=" << bucket
     << "-iteration buckets; '#'>=90% busy, '+'>=50%, '.'>0, ' '=idle)\n";
  for (int d = 0; d < num_devices_; ++d) {
    os << "GPU" << d << " |";
    for (int col = 0; col < columns; ++col) {
      double busy = 0, wall = 0;
      for (int it = col * bucket; it < std::min(iters, (col + 1) * bucket);
           ++it) {
        busy += DeviceIterationTotal(it, d);
        wall += IterationWall(it);
      }
      const double u = wall > 0 ? busy / wall : 0.0;
      os << (u >= 0.9 ? '#' : u >= 0.5 ? '+' : u > 0.0 ? '.' : ' ');
    }
    os << "|\n";
  }
  return os.str();
}

}  // namespace gum::sim
