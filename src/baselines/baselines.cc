// Anchor translation unit: instantiates the baseline engine templates with
// the four benchmark apps so template compile errors surface in the library
// build rather than first in tests.

#include "algos/apps.h"
#include "baselines/gunrock_like.h"
#include "core/engine.h"

namespace gum::baselines {

template class GunrockLikeEngine<algos::BfsApp>;
template class GunrockLikeEngine<algos::SsspApp>;
template class GunrockLikeEngine<algos::WccApp>;
template class GunrockLikeEngine<algos::PageRankApp>;

}  // namespace gum::baselines

namespace gum::core {

template class GumEngine<algos::BfsApp>;
template class GumEngine<algos::SsspApp>;
template class GumEngine<algos::WccApp>;
template class GumEngine<algos::PageRankApp>;
template class GumEngine<algos::DeltaPageRankApp>;

}  // namespace gum::core
