#!/usr/bin/env bash
# joza_gateway must flush its banner once it listens: started with
# --port 0 and stdout going to a file, the picked port is readable there
# within 2 s, and that port answers a request.
#
#   bash this <joza_gateway binary> <scratch dir>
set -u
gateway=$1
out="$2/banner_test_stdout.txt"
"$gateway" --port 0 --workers 1 --duration 30 >"$out" 2>&1 &
pid=$!
trap 'kill -INT "$pid" 2>/dev/null; wait "$pid" 2>/dev/null' EXIT

port=
for _ in $(seq 20); do
  sleep 0.1
  port=$(sed -n 's/^joza_gateway on 127\.0\.0\.1:\([0-9][0-9]*\) .*/\1/p' "$out")
  [ -n "$port" ] && break
done
if [ -z "$port" ]; then
  echo "no banner with a port in stdout after 2 s; it held:" >&2
  cat "$out" >&2
  exit 1
fi

exec 3<>"/dev/tcp/127.0.0.1/$port" || exit 1
printf 'GET /post?id=7 HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n' >&3
status=
IFS= read -r -t 10 status <&3
exec 3<&-
case "$status" in
  "HTTP/1.1 200"*) exit 0 ;;
  *) echo "port $port answered '$status', not 200" >&2; exit 1 ;;
esac
