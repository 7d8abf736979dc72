"""R3 fixture: core/ function bodies bind enum members, never load them."""

from repro.core.access import AccessRole, Priority, RequestType

_PR = Priority.PR                      # module level: bound once


class Router:
    DEFAULT = RequestType.READ         # class body: evaluated once

    def route(self, access, kind=AccessRole.TAG_WRITE):  # default: once
        if access.priority == Priority.LR:               # expect: R3
            return access.role == kind

        def nested():
            return RequestType.WRITEBACK                 # expect: R3

        return access.priority == _PR or nested()

    def classes(self):
        return list(Priority)          # the enum itself, not a member
