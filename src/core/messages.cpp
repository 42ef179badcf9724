#include "core/messages.hpp"

namespace emon::core {

const char* to_string(CtrlType t) noexcept {
  switch (t) {
    case CtrlType::kRegisterAccept:
      return "register-accept";
    case CtrlType::kRegisterReject:
      return "register-reject";
    case CtrlType::kReportAck:
      return "report-ack";
    case CtrlType::kReportNack:
      return "report-nack";
    case CtrlType::kMembershipRemoved:
      return "membership-removed";
  }
  return "?";
}

}  // namespace emon::core
