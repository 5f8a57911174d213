"""Length-prefixed pickle messages between the runner and its worker.

Both ends are processes of this benchmark, so unpickling only ever
reads bytes this benchmark wrote.
"""

import pickle
import struct

_HEADER = struct.Struct("<Q")


class JobError(str):
    """Output of a job that raised; the runner counts it as failed."""


def send(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(data)))
    stream.write(data)
    stream.flush()


def recv(stream):
    """Next message, or None when the other end has closed the stream."""
    head = stream.read(_HEADER.size)
    if len(head) < _HEADER.size:
        return None
    (size,) = _HEADER.unpack(head)
    return pickle.loads(stream.read(size))
