#include "serve/request.hh"

#include "common/logging.hh"

namespace liquid::serve
{

const char *
className(RequestClass cls)
{
    switch (cls) {
      case RequestClass::Simulate:
        return "simulate";
      case RequestClass::Verify:
        return "verify";
      case RequestClass::Scan:
        return "scan";
      case RequestClass::Chaos:
        return "chaos";
      case RequestClass::Proof:
        return "proof";
    }
    panic("unknown RequestClass");
}

std::string
Request::key() const
{
    return std::string(className(cls)) + ':' + job.key();
}

const char *
statusName(ResponseStatus status)
{
    switch (status) {
      case ResponseStatus::Ok:
        return "ok";
      case ResponseStatus::Cancelled:
        return "cancelled";
      case ResponseStatus::Rejected:
        return "rejected";
      case ResponseStatus::Failed:
        return "failed";
    }
    panic("unknown ResponseStatus");
}

const char *
sourceName(ResponseSource source)
{
    switch (source) {
      case ResponseSource::Executed:
        return "executed";
      case ResponseSource::HotCache:
        return "hot";
      case ResponseSource::ColdCache:
        return "cold";
      case ResponseSource::Coalesced:
        return "coalesced";
      case ResponseSource::None:
        return "none";
    }
    panic("unknown ResponseSource");
}

} // namespace liquid::serve
