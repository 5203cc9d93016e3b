# Helpers shared by the tools/check_*.sh harnesses.  Source it after
# setting $qpf_serve (the server binary) and server_pid="":
#
#   . "$repo_root/tools/check_lib.sh"
#
# Every assertion and every PASS line stays in the calling script; this
# file holds only plumbing.  Messages carry the calling script's name.

check_name=${0##*/}

# fail <message...>: report on stderr and exit 1.
fail() {
    echo "$check_name: $*" >&2
    exit 1
}

# start_server <logfile> [flags...]: launch $qpf_serve on an ephemeral
# port and wait until it announces it; exports $server_pid and $port.
# $faultfs, when set and non-empty, becomes QPF_FAULTFS for the server
# only.
start_server() {
    local log="$1"
    shift
    if [ -n "${faultfs:-}" ]; then
        env QPF_FAULTFS="$faultfs" "$qpf_serve" --port=0 "$@" \
            >"$log" 2>"$log.err" &
    else
        "$qpf_serve" --port=0 "$@" >"$log" 2>"$log.err" &
    fi
    server_pid=$!
    port=""
    local tries=0
    while [ -z "$port" ]; do
        port=$(sed -n 's/^listening on port \([0-9][0-9]*\)$/\1/p' "$log" \
            2>/dev/null || true)
        [ -n "$port" ] && break
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            cat "$log.err" >&2
            fail "server never reported its port"
        fi
        kill -0 "$server_pid" 2>/dev/null || {
            cat "$log.err" >&2
            fail "server died on startup"
        }
        sleep 0.1
    done
}

# stop_server: SIGTERM the server and wait for it; exports $server_exit.
stop_server() {
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null && server_exit=0 || server_exit=$?
    server_pid=""
}
