// The int8 datapath, Quantized8ProposedDiscriminator (`OURS-INT8`), is the
// int8 instantiation of QuantizedProposedOf and is declared with it; this
// header remains so existing includes of the int8 design keep compiling.
#pragma once

#include "discrim/quantized_proposed.h"
