#ifndef PROGRES_MECHANISM_PSNM_H_
#define PROGRES_MECHANISM_PSNM_H_

#include "mechanism/sorted_neighbor.h"

namespace progres {

// The Progressive Sorted Neighborhood Method of "Progressive duplicate
// detection" [6], the paper's mechanism for the OL-Books experiments. PSNM
// sweeps each rank distance d partition by partition so that each
// partition fits in memory; within one in-memory block that sweep visits
// the left ranks 0..n-d-1 in order, which is exactly SN's enumeration. So
// PSNM is SN under the paper's name: same pairs, same order, same cost.
class PsnmMechanism : public SortedNeighborMechanism {
 public:
  using SortedNeighborMechanism::SortedNeighborMechanism;

  std::string name() const override { return "PSNM"; }
};

}  // namespace progres

#endif  // PROGRES_MECHANISM_PSNM_H_
