#include "storage/column.h"

namespace dwred::storage {

const char* EncodingName(ColEncoding e) {
  switch (e) {
    case ColEncoding::kPlain:
      return "plain";
    case ColEncoding::kDict:
      return "dict";
    case ColEncoding::kRle:
      return "rle";
    case ColEncoding::kFor:
      return "for";
  }
  return "?";
}

}  // namespace dwred::storage
