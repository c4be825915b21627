#include "ml/metrics.h"

namespace pds2::ml {

double Accuracy(const Model& model, const Dataset& data) {
  if (data.Size() == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < data.Size(); ++i) {
    if (model.PredictLabel(data.x[i]) == data.y[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(data.Size());
}

}  // namespace pds2::ml
