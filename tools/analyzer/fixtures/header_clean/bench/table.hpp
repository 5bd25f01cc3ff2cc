#pragma once

int table();
