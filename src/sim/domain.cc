#include "sim/domain.hh"

#include "sim/logging.hh"
#include "sim/trace_sink.hh"

namespace mgsec
{

namespace
{
thread_local Domain *t_current = nullptr;
} // namespace

Domain::Domain(DomainId id, EventQueue &host_eq)
    : id_(id), eq_(&host_eq)
{
    eq_->setDomainId(id_);
}

Domain::Domain(DomainId id)
    : id_(id), owned_(std::make_unique<EventQueue>()),
      eq_(owned_.get())
{
    eq_->setDomainId(id_);
}

Domain::~Domain() = default;

Domain *
Domain::current()
{
    return t_current;
}

Domain::Scope::Scope(Domain &d) : prev_(t_current)
{
    t_current = &d;
}

Domain::Scope::~Scope()
{
    t_current = prev_;
}

void
Domain::enableTraceBuffer()
{
    MGSEC_ASSERT(!trace_, "domain trace buffer already attached");
    trace_ = std::make_unique<TraceSink>(TraceSink::Embedded{});
    eq_->setTraceSink(trace_.get());
}

} // namespace mgsec
