#ifndef PDS2_ML_METRICS_H_
#define PDS2_ML_METRICS_H_

#include "ml/dataset.h"
#include "ml/model.h"

namespace pds2::ml {

/// Fraction of examples whose predicted label equals the true label
/// (classification). Empty datasets score 0.
double Accuracy(const Model& model, const Dataset& data);

}  // namespace pds2::ml

#endif  // PDS2_ML_METRICS_H_
