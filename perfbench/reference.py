"""A reference server for ``service-open``: fixed work behind HTTP.

Run as a script; it prints ``listening on http://HOST:PORT`` and then
answers every request with one run of the benchmark's probe kernel.  It
is built like ``repro serve`` (an asyncio front end that hands the work
to a pool thread and answers when the thread is done) but calls no
program code.  ``service-open`` pins it to the service's CPU and calls
it while the service is idle, so its round-trip time gives the speed of
that path on that CPU during the run.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor

from common import probe_kernel


async def serve() -> None:
    loop = asyncio.get_running_loop()
    pool = ThreadPoolExecutor(max_workers=1)

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        while (await reader.readline()).strip():
            pass  # request line and headers; requests carry no body
        body = str(await loop.run_in_executor(pool, probe_kernel)).encode()
        writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                     b"Connection: close\r\nContent-Length: %d\r\n\r\n%s"
                     % (len(body), body))
        await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    async with server:
        await server.serve_forever()


if __name__ == "__main__":
    asyncio.run(serve())
