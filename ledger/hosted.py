"""The object the ``qs_*`` workloads host on their handlers.

It lives in a module of its own so that process-backend workers, which
unpickle hosted objects by import path, can find the class.
"""

from repro import SeparateObject, command, query


class Log(SeparateObject):
    def __init__(self) -> None:
        self.logged = 0
        self.asked = 0

    @command
    def log(self, _item: int) -> None:
        self.logged += 1

    @query
    def progress(self) -> int:
        """Commands logged plus queries answered so far, this one included."""
        self.asked += 1
        return self.logged + self.asked
